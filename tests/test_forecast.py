"""Forecast evolution: replay oracles, truncation, bias schedules, dump/replay."""

import gc
import hashlib
import math
import random
import statistics
import weakref
from array import array
from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mrpsim import driver
from mrpsim.cli import main
from mrpsim.config import FINAL_PRODUCTS
from mrpsim.driver import build_tape
from mrpsim.experiment import GridSpec, Instance, make_config
from mrpsim.forecast import (
    BIASED_SCHEDULES,
    HORIZON,
    SCHEDULES,
    ScenarioParams,
    StreamNormals,
    advance,
    dump_tape,
    forecast_terms,
    load_replay,
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


E = 800   # the default plant's expected order amount


def _terms(alpha=0.0, bias="unbiased"):
    """A scenario's (long-term value, means j = 0..H, deviation) at E."""
    return forecast_terms(ScenarioParams(alpha, bias), E)


def long_term(cfg):
    """The long-term value of the runs of `cfg`."""
    return forecast_terms(cfg.scenario, cfg.system.demand.expected_amount)[0]


def normals(rng):
    """The standard normals of generator `rng`, as `advance` reads them."""
    return iter(partial(rng.gauss, 0.0, 1.0), None)


def one_update(prev, mean, std, rng):
    """One update term: a stream of one update at j = 1 through `advance`."""
    return advance(prev, range(1, 0, -1), (0.0, mean), std,
                   rng and normals(rng))[0] - prev


@pytest.mark.parametrize("bias,beta,start,eps,values", REPLAY_CASES)
def test_replay_trajectories(bias, beta, start, eps, values):
    # the paper's beta of each scenario is the results column's derivation
    assert Instance("low", 0.04, bias).beta == beta
    x, means, std = _terms(0.04, bias)
    assert x == start

    got = advance(start, range(10, 0, -1), means, std, None, eps)
    assert got == values[::-1]
    # the j = 0 update draws nothing: the order firms at its last value
    rng = random.Random(0)
    assert advance(got[0], range(0, -1, -1), means, std,
                   normals(rng)) == (739,)
    # trajectory identity: firmed value = start + sum of updates
    assert got[0] == start + sum(eps)


def test_long_term_forecast_values():
    assert _terms(bias="permanent_underbooking")[0] == 480
    assert _terms(bias="permanent_overbooking")[0] == 1120
    for name in ("unbiased", "temporary_overbooking", "temporary_underbooking"):
        assert _terms(bias=name)[0] == 800


def test_schedule_shapes():
    assert all(b == 0.0 for b in SCHEDULES["unbiased"])
    for name in ("temporary_overbooking", "temporary_underbooking"):
        assert math.isclose(sum(SCHEDULES[name]), 0.0, abs_tol=1e-12)
    assert SCHEDULES["permanent_overbooking"] == (-0.04,) * 10
    assert SCHEDULES["permanent_underbooking"] == (0.04,) * 10
    assert set(BIASED_SCHEDULES) == set(SCHEDULES) - {"unbiased"}
    # the firming step j = 0 has no factor and no mean
    means = _terms(bias="permanent_underbooking")[1]
    assert len(means) == HORIZON + 1 and means[0] == 0.0
    assert SCHEDULES["permanent_underbooking"][10 - 1] == 0.04
    # temporary overbooking inflates mid-range forecasts and deflates late ones
    tover = SCHEDULES["temporary_overbooking"]
    assert tover[6 - 1] == pytest.approx(0.08)
    assert tover[3 - 1] == pytest.approx(-0.08)


# sha256 of repr(build_tape(...)) and the long-term value per schedule at
# alpha 0.06, run_length 60, warmup 10, seed 42
SCHEDULE_TAPES = {
    "unbiased": (
        "ac63883c36879e6b899b9dff827fd06966e73d4be3ac59992d11de0e23060bfd", 800),
    "temporary_overbooking": (
        "4b02fc884010169a82d3d5fc818c317d66b3e0c3d4b6d32ccb559b122c8b5445", 800),
    "temporary_underbooking": (
        "23231250657d101ecd5393bc0f8764875d35762441572395291b7653b8b5a0d6", 800),
    "permanent_overbooking": (
        "a37e2b45b917e5506d824a317ec214c174cea4ae2332a43b316f035f59aab821", 1120),
    "permanent_underbooking": (
        "ac244d656b1e789a380dcec978b6b9b03c8b6e111742ea995dfb36c0d45bd414", 480),
}


# sha256 of repr(build_tape(...)) at (alpha, bias), run_length 60, warmup
# 10, seed 42: no draws at alpha 0, and ~10 draws per update at alpha 1.5
# under permanent overbooking
ALPHA_TAPES = {
    (0.0, "unbiased"):
        "a964ff129d7708f2f73170c21b2af24a8971d3d47b91b31ca1346ba9c179bbcc",
    (0.0, "permanent_overbooking"):
        "775d756ab462ce42de2ccc7cf4b87974b648fdf757fd69d740feb7cb5dfecf4a",
    (1.5, "permanent_overbooking"):
        "967710979bf003f24eaa06ba9c577345459739dcfd1a1653e94385de1e169676",
    (1.5, "temporary_underbooking"):
        "d66dc85252bc46ca3534898b3897f8166c750ae005a410026c5a38c2f4758e3a",
}


def test_schedule_tapes_are_pinned():
    assert tuple(SCHEDULE_TAPES) == tuple(SCHEDULES)
    for name, (digest, start) in SCHEDULE_TAPES.items():
        config = make_config(alpha=0.06, bias=name, run_length=60, warmup=10)
        assert long_term(config) == start
        tape = repr(build_tape(config)).encode()
        assert hashlib.sha256(tape).hexdigest() == digest, name
    for (alpha, bias), digest in ALPHA_TAPES.items():
        config = make_config(alpha=alpha, bias=bias, run_length=60, warmup=10)
        tape = repr(build_tape(config)).encode()
        assert hashlib.sha256(tape).hexdigest() == digest, (alpha, bias)


def test_scenario_validation():
    for alpha in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="alpha"):
            ScenarioParams(alpha=alpha)
    with pytest.raises(ValueError, match="unknown bias schedule 'sinusoidal'"):
        ScenarioParams(bias="sinusoidal")
    _, means, std = _terms(0.06, "permanent_underbooking")
    assert std == pytest.approx(48.0)
    assert means[5] == pytest.approx(32.0)


def test_degenerate_update_is_zero():
    # negative mean at least as large as the previous value collapses the
    # truncation interval
    rng = random.Random(1)
    assert one_update(20, -32.0, 10.0, rng) == 0
    assert one_update(32, -32.0, 10.0, rng) == 0
    assert one_update(0, -1.0, 10.0, rng) == 0


def test_zero_std_returns_mean():
    # a zero std draws nothing, so no generator is needed
    assert one_update(800, 0.0, 0.0, None) == 0
    assert one_update(800, 32.0, 0.0, None) == 32
    assert one_update(800, -32.0, 0.0, None) == -32
    # positive means always sit inside [-prev, prev + 2*mean]
    assert one_update(10, 500.0, 0.0, None) == 500


def test_sample_update_bounds():
    rng = random.Random(7)
    for _ in range(20000):
        eps = one_update(800, 32.0, 320.0, rng)
        assert -800 <= eps <= 864
        assert isinstance(eps, int)
    # tight interval around a small previous value
    for _ in range(5000):
        eps = one_update(3, 0.0, 500.0, rng)
        assert -3 <= eps <= 3


def test_sample_update_moments():
    rng = random.Random(12345)
    n = 100000
    draws = [one_update(800, 32.0, 32.0, rng) for _ in range(n)]
    # truncation bounds sit 25 sigma away, so moments match the normal
    assert statistics.fmean(draws) == pytest.approx(32.0, abs=0.5)
    assert statistics.stdev(draws) == pytest.approx(32.0, rel=0.01)


class ScriptedNormals:
    """Standard normals that are all `z`; counts its draws."""

    def __init__(self, z):
        self.z, self.calls = z, 0

    def __next__(self):
        self.calls += 1
        return self.z


def test_rejected_draws_fall_back_to_the_clamped_mean():
    # at value 0 and mean 0 the interval is [0, 0]: every draw of 0.3 x 5 is
    # rejected, and after exactly 10,000 of them the update is the mean
    zs = ScriptedNormals(0.3)
    assert advance(0, range(1, 0, -1), (0.0, 0.0), 5.0, zs) == (0,)
    assert zs.calls == 10000
    # the same at value 10, whose interval [-10, 10] the draws of 100 miss
    zs = ScriptedNormals(20.0)
    assert advance(10, range(1, 0, -1), (0.0, 0.0), 5.0, zs) == (10,)
    assert zs.calls == 10000
    # a first draw inside the interval, 2.6, is the only one
    zs = ScriptedNormals(0.52)
    assert advance(800, range(1, 0, -1), (0.0, 0.0), 5.0, zs) == (803,)
    assert zs.calls == 1


def test_rounded_draw_stays_inside_the_interval():
    # mean 0.3 at value 0 allows [0, 0.6]: a draw of 0.3 + 0.05 x 5 = 0.55
    # rounds to 1, which the interval's integer upper bound 0 cuts back
    assert advance(0, range(1, 0, -1), (0.0, 0.3), 5.0,
                   ScriptedNormals(0.05)) == (0,)
    assert advance(0, range(1, 0, -1), (0.0, 0.8), 5.0,
                   ScriptedNormals(0.15)) == (1,)


def test_advance_final_update_is_zero():
    _, means, std = _terms(0.1)
    rng = random.Random(2)
    state = rng.getstate()
    assert advance(800, range(0, -1, -1), means, std, normals(rng)) == (800,)
    assert rng.getstate() == state
    # a stream that firms in the run repeats its j = 1 value at j = 0
    values = advance(800, range(3, -1, -1), means, std, normals(rng))
    assert len(values) == 4 and values[0] == values[1]


def test_negative_forecast_rejected(tmp_path, capsys):
    # a replayed update that drives one stream below zero, in memory and
    # through the CLI; sampled updates truncate at zero and never can
    cfg = make_config(alpha=0.06, run_length=30, warmup=5)
    path = tmp_path / "tape.csv"
    dump_tape(build_tape(cfg), long_term(cfg), str(path))
    replay = load_replay(str(path))
    replay[11, 14, 4] = -5000
    with pytest.raises(ValueError, match="forecast of product 11 due 14 "
                                         "went negative at j=4"):
        build_tape(cfg, replay)

    lines = path.read_text().splitlines()
    row = next(i for i, line in enumerate(lines)
               if line.startswith("11,14,4,"))
    fields = lines[row].split(",")
    fields[3] = "-5000"
    lines[row] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    code = main(["simulate", "--alpha", "0.06", "--periods", "30",
                 "--warmup", "5", "--replay-forecasts", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert ("error: forecast of product 11 due 14 went negative at j=4"
            in err)


def test_a_replay_file_that_repeats_an_update_is_refused(tmp_path, capsys):
    # a second row of one (product, due, j) would replay over the first
    path = tmp_path / "tape.csv"
    assert main(["simulate", "--alpha", "0.06", "--periods", "40",
                 "--warmup", "5", "--dump-forecasts", str(path)]) == 0
    lines = path.read_text().splitlines()
    assert any(line.startswith("10,13,10,") for line in lines)
    path.write_text("\n".join(lines + ["10,13,10,300,1100"]) + "\n")
    message = (f"replay file {path} line {len(lines) + 1}: repeats product "
               f"10 due 13 j=10")
    with pytest.raises(ValueError) as info:
        load_replay(str(path))
    assert str(info.value) == message
    capsys.readouterr()
    code = main(["simulate", "--alpha", "0", "--periods", "40", "--warmup",
                 "5", "--replay-forecasts", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_alpha_zero_unbiased_never_moves():
    _, means, std = _terms(0.0)
    assert advance(800, range(10, -1, -1), means, std, None) == (800,) * 11


def test_alpha_zero_tape_seeds_no_generator(monkeypatch):
    def no_generator(*key):
        raise AssertionError(f"stream {key} seeded a generator")

    monkeypatch.setattr(driver, "stream_rng", no_generator)
    for bias in ("unbiased", "permanent_overbooking"):
        build_tape(make_config(alpha=0.0, bias=bias, run_length=60,
                               warmup=10))
    with pytest.raises(AssertionError, match="seeded a generator"):
        build_tape(make_config(alpha=0.06, run_length=60, warmup=10))


def test_unbiased_streams_average_to_expectation():
    _, means, std = _terms(0.06)
    finals = []
    for rep in range(2500):
        values = advance(800, range(10, -1, -1), means, std,
                         normals(stream_rng(99, rep, 10, 40)))
        assert min(values) >= 0
        finals.append(values[0])
    # sd of one firmed value is ~ 48 * sqrt(10) = 152, so the mean of 2500
    # streams lands within +-10 of 800 at ~3 sigma
    assert statistics.fmean(finals) == pytest.approx(800, abs=10)


def test_substream_independence_of_generation_order():
    _, means, std = _terms(0.10)
    keys = [(p, due) for p in (10, 11, 14) for due in (21, 25, 29)]

    def run(order):
        return {(p, due): advance(800, range(10, -1, -1), means, std,
                                  normals(stream_rng(42, 0, p, due)))[0]
                for p, due in order}

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
    dump_tape(tape, long_term(cfg), str(path))
    replay = load_replay(str(path))

    frozen = make_config(alpha=0.0, run_length=30, warmup=5,
                         overrides={"demand": {"first_delay": 3}})
    assert build_tape(frozen, replay) == tape
    # one update per tape value and one long-term value per stream
    assert len(replay) == sum(len(values) + 1 for column in tape.values()
                              for values in column if values is not None)

    lines = path.read_text().splitlines()
    assert lines[0] == "product,due_date,j,epsilon,value"
    # product 10 (offset 1) is first due at 5: opened at j = 4, firmed at 0
    assert [line.split(",")[2] for line in lines[1:7]] == \
        ["11", "4", "3", "2", "1", "0"]
    assert lines[1] == "10,5,11,0,800"


def test_replay_must_hold_every_update_the_run_reads():
    # a replay of long-term values alone is a replay, not a sampled run
    long_term = {(product, due, HORIZON + 1): 800 for product in range(10, 18)
                 for due in range(1, 41)}
    cfg = make_config(alpha=0.08, run_length=30, warmup=5)
    with pytest.raises(ValueError, match="product 10 due 13 at j=10"):
        build_tape(cfg, long_term)
    # an empty replay (a header-only file) lacks the long-term values too
    with pytest.raises(ValueError, match="product 10 due 13 is missing, "
                                         "this run's is 800"):
        build_tape(cfg, {})
    # updates the run never reads are ignored, so longer dumps still replay
    replay = {(product, due, j): 0 for product in range(10, 18)
              for due in range(1, 41) for j in range(HORIZON + 1)}
    cfg = make_config(alpha=0.0, run_length=20, warmup=5)
    assert build_tape(cfg, replay | long_term) == build_tape(cfg)


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


def test_an_alpha_whose_update_deviation_overflows_is_refused(capsys):
    # alpha is finite, but alpha x 800 is not: every update would spend
    # 10,000 draws on an infinite deviation and keep the forecast at 800
    with pytest.raises(ValueError, match="must be finite, got 1e[+]308 x 800"):
        _terms(1e308)
    with pytest.raises(ValueError, match="must be finite"):
        GridSpec(name="overflow", alphas=(1e308,))
    assert _terms(1e300)[2] == 1e300 * 800
    # make_config checks the deviation at the plant it builds: alpha 1e306
    # overflows at 800 pieces, not at an overridden 100
    with pytest.raises(ValueError, match="must be finite, got 1e[+]306 x 800"):
        make_config(alpha=1e306)
    small = make_config(alpha=1e306,
                        overrides={"demand": {"expected_amount": 100}})
    assert long_term(small) == 100
    with pytest.raises(ValueError, match="must be finite, got 1e[+]306 x 800"):
        GridSpec(name="overflow", alphas=(1e306,))
    code = main(["simulate", "--alpha", "1e308", "--periods", "30",
                 "--warmup", "5"])
    assert code == 2
    assert ("error: alpha times the expected amount must be finite, got "
            "1e+308 x 800") in capsys.readouterr().err


# ------------------------------------------------- shared standard normals

_MEANS = (0.0, -0.0, -64.0, -3.2, 32.0, 800.0)
_DEVIATIONS = (1e-3, 1.6, 48.0, 96.0, 1200.0)


@pytest.mark.parametrize("stored", [0, 1, 2, 7])
def test_replayed_gauss_equals_random_gauss_bit_for_bit(stored):
    # `stored` normals come from the store, the rest from a generator seeded
    # on the way; 13 draws cross pair boundaries both ways
    for seed in range(60):
        pick = random.Random(-seed)
        draws = [(pick.choice(_MEANS), pick.choice(_DEVIATIONS))
                 for _ in range(13)]
        store, seeded = StreamNormals(seed, 0), []

        def seed_generator(*key):
            seeded.append(key)
            return random.Random(seed)

        filler = store.replay(10, 21, seed_generator)
        for _ in range(stored):
            next(filler)
        del filler
        seeded.clear()
        replay, reference = store.replay(10, 21, seed_generator), \
            random.Random(seed)
        for i, (mu, sigma) in enumerate(draws):
            got, want = mu + next(replay) * sigma, reference.gauss(mu, sigma)
            assert got.hex() == want.hex(), (seed, i, mu, sigma)
            # a generator is seeded once, at the first draw past the store
            assert seeded == [(seed, 0, 10, 21)] * (i >= stored)
        assert len(store.streams[10, 21]) == max(stored, len(draws))


def test_a_replay_frees_its_generator_without_the_cycle_collector():
    # a stream's normals past the store hold its generator until the stream
    # is drawn; a cycle between them would keep every stream's generator,
    # ~2.5 KB each, until the collector runs
    seeded = []

    def seed(*key):
        generator = random.Random(1)
        seeded.append(weakref.ref(generator))
        return generator

    store = StreamNormals(42, 0)
    store.streams[10, 21] = array("d", [0.5])
    enabled = gc.isenabled()
    gc.disable()
    try:
        replay = store.replay(10, 21, seed)
        for _ in range(3):
            next(replay)
        assert seeded[0]() is not None
        del replay
        assert seeded[0]() is None
    finally:
        if enabled:
            gc.enable()


def fresh_tape(cfg):
    """The tape of `cfg` drawn stream by stream on fresh generators: each
    update a `gauss(mean, std)` of the stream's own `stream_rng`, redrawn
    until it falls in [-prev, prev + 2 * mean] (10,000 draws at most, then
    the clamped mean), rounded and clamped to the interval's integer bounds;
    none at j = 0, at a collapsed interval or at std 0."""
    last = cfg.run_length
    start, means, std = forecast_terms(cfg.scenario,
                                       cfg.system.demand.expected_amount)
    tape = {}
    for product in FINAL_PRODUCTS:
        column = tape[product] = [None] * (last + HORIZON + 1)
        for due in cfg.system.demand.due_dates(product, 1, last + HORIZON):
            rng = stream_rng(cfg.base_seed, cfg.replication, product, due)
            value, values = start, []
            for j in range(min(HORIZON, due - 1), max(0, due - last) - 1, -1):
                mean = means[j]
                lo, hi = -value, value + 2 * mean
                if j and (lo < hi or mean >= 0):
                    x = mean
                    if std:
                        for _ in range(10000):
                            x = rng.gauss(mean, std)
                            if lo <= x <= hi:
                                break
                        else:
                            x = min(max(mean, lo), hi)
                    value += min(round(x), math.floor(hi))
                values.append(value)
            column[due] = tuple(reversed(values))
    return tape


_SCENARIOS = st.tuples(st.sampled_from((0.0, 0.02, 0.12, 1.5)),
                       st.sampled_from(sorted(SCHEDULES)))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), replication=st.integers(0, 30),
       run_length=st.integers(1, 25),
       scenarios=st.lists(_SCENARIOS, min_size=1, max_size=4))
# ~10 draws per update under permanent overbooking at alpha 1.5, ~263
# unbiased: the second tape reads past the first one's normals
@example(seed=42, replication=0, run_length=25,
         scenarios=[(1.5, "permanent_overbooking"), (1.5, "unbiased")])
def test_tapes_on_one_store_equal_tapes_on_fresh_generators(
        seed, replication, run_length, scenarios):
    normals = StreamNormals(seed, replication)
    for alpha, bias in scenarios:
        cfg = make_config(alpha=alpha, bias=bias, base_seed=seed,
                          replication=replication, run_length=run_length,
                          warmup=0)
        assert build_tape(cfg, normals=normals) == fresh_tape(cfg)


def test_a_store_hands_back_its_tape_only_to_configs_of_its_key():
    # a store keeps the last tape built on it; a config that differs from
    # that tape's only in the run length or the demand pattern (its
    # interval, first delay or expected amount) must get a tape of its own
    def config(run_length=60, **demand):
        return make_config(alpha=0.06, bias="permanent_underbooking",
                           run_length=run_length, warmup=10,
                           overrides={"demand": demand} if demand else None)

    configs = [config(), config(run_length=70), config(interval=5),
               config(first_delay=16), config(expected_amount=900),
               config()]
    fresh = [build_tape(cfg) for cfg in configs]
    # each tape differs from the one before, so a stale one shows
    assert all(a != b for a, b in zip(fresh, fresh[1:]))
    normals = StreamNormals(42, 0)
    for cfg, tape in zip(configs, fresh):
        held = build_tape(cfg, normals=normals)
        assert held == tape
        # a config of the same key gets the same tape back
        assert build_tape(cfg, normals=normals) is held


def test_a_scenario_past_the_stored_normals_redraws_and_extends_them(
        monkeypatch):
    seeded = []

    def counting_stream_rng(*key):
        seeded.append(key)
        return stream_rng(*key)

    monkeypatch.setattr(driver, "stream_rng", counting_stream_rng)
    normals = StreamNormals(42, 0)

    def lengths():
        return {key: len(zs) for key, zs in normals.streams.items()}

    tapes = []
    for bias in ("permanent_overbooking", "unbiased", "permanent_overbooking"):
        cfg = make_config(alpha=1.5, bias=bias, run_length=25, warmup=0)
        before, seeded[:] = lengths(), []
        tapes.append(build_tape(cfg, normals=normals))
        assert tapes[-1] == fresh_tape(cfg)
        after = lengths()
        # each stream whose store grew seeded its generator once
        assert sorted(seeded) == sorted(
            (42, 0, product, due) for (product, due), n in after.items()
            if n != before.get((product, due), 0))
        if bias == "unbiased":
            assert seeded and sum(after.values()) > 5 * sum(before.values())
    # the first tape's normals are all still there: the last seeds nothing
    assert seeded == [] and tapes[0] == tapes[2]

