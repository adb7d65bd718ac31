"""Evolving demand forecasts with additive, possibly biased updates.

Every customer order (product k, due period i) starts as a long-term forecast
and is revised once per period during the last H=10 periods before delivery.
With j periods left until delivery the forecast value is

    D[k,i,j] = x_k                      for j > H   (long-term value)
    D[k,i,H] = x_k + eps[k,i,H]
    D[k,i,j] = D[k,i,j+1] + eps[k,i,j]  for j < H,  eps[k,i,0] = 0

so the firmed customer order is the final forecast D[k,i,0].  Update terms are
drawn from a normal distribution with mean beta * b_j * E and standard
deviation alpha * E (E = expected order amount, 800 pieces), truncated to

    [-D[k,i,j+1],  D[k,i,j+1] + 2 * mean]

which keeps forecasts non-negative and, for unbiased updates, symmetric
around the previous value.  For a negative mean whose magnitude reaches the
previous value the interval degenerates and the update is 0.

Bias schedules b_10..b_1 describe systematic forecasting errors: temporary
schedules sum to zero (the long-term value is already correct and interim
updates overshoot or undershoot), permanent schedules shift the long-term
value itself, which therefore starts at x_k = E * (1 - beta * sum(b)) and
drifts toward the true expectation as updates arrive.  beta is 1 exactly for
the biased schedules and the unbiased schedule's b_j are 0, so the code
draws around b_j * E and shifts by sum(b).

Stored normals.  A stream, one (replication, product, due date), draws its
updates in one pass (`advance`) from a generator seeded by hashing (seed,
replication, product, due) alone (`stream_rng`), so demand realizations are
identical across utilizations, planning parameters and netting modes
(common random numbers) and independent of the order of the streams; at
alpha 0 nothing is drawn and no generator is seeded.  Setups draw from one
more substream per (seed, replication), the shop's.  No key holds a part of
the forecast scenario, so a `StreamNormals` store draws each standard
normal of a (seed, replication) once: a stream's with `Random.gauss(0.0,
1.0)`, replayed by every scenario's tape (`driver.build_tape`, whose last
tape the store keeps), and the shop's with `Random.normalvariate(0.0,
1.0)`, read by every run's setups (`shopfloor`).  A stored z is the
`0.0 + z * 1.0` these calls return: z, but for the sign of a zero.

Bit-equality.  `Random.gauss(mean, std)` returns `mean + z * std` for its
standard normal z, so an update `mean + z * std` on a stored z is the one
drawn afresh.  `Random.normalvariate(mu, sigma)` returns `mu + z * sigma`
for its Kinderman-Monahan z and `lognormvariate` is `exp` of that, so a
setup `exp(mu + z * sigma)` on a stored z is bit for bit `lognormvariate(mu,
sigma)` on the shop's generator.  Tests in tests/test_forecast.py and
tests/test_shopfloor.py:

    test_replayed_gauss_equals_random_gauss_bit_for_bit
    test_tapes_on_one_store_equal_tapes_on_fresh_generators
    test_setup_draw_is_the_stdlib_lognormal_bit_for_bit
    test_runs_sharing_a_store_give_the_rows_of_fresh_stores

Tape replay.  Runs read every forecast value from a tape; `dump_tape`
writes one as CSV and `load_replay` reads it back as epsilons to inject,
with each stream's long-term value, which the replaying run's must equal.
"""

from __future__ import annotations

import csv
import hashlib
import math
import random
from array import array
from collections.abc import Iterator
from dataclasses import dataclass

from .config import _DEFAULT_OVERRIDES
from .kpi import float_sum

HORIZON = 10  # forecast updates start H periods before delivery

_TEMP_OVER_B = (-0.04, -0.04, -0.08, 0.0, 0.0, 0.08, 0.04, 0.04, 0.0, 0.0)

# each schedule's factors b_1..b_H: b[j-1] applies j periods before delivery
SCHEDULES: dict[str, tuple[float, ...]] = {
    "unbiased": (0.0,) * HORIZON,
    "temporary_overbooking": _TEMP_OVER_B,
    "temporary_underbooking": tuple(-b for b in _TEMP_OVER_B),
    "permanent_overbooking": (-0.04,) * HORIZON,
    "permanent_underbooking": (0.04,) * HORIZON,
}
BIASED_SCHEDULES = tuple(name for name in SCHEDULES if name != "unbiased")


@dataclass(frozen=True)
class ScenarioParams:
    """Forecast-quality scenario: noise level alpha and bias schedule name."""

    alpha: float = 0.0
    bias: str = "unbiased"
    expected_amount: int = _DEFAULT_OVERRIDES["demand"]["expected_amount"]

    def __post_init__(self) -> None:
        if not (math.isfinite(self.alpha) and self.alpha >= 0):
            raise ValueError(f"alpha must be finite and non-negative, "
                             f"got {self.alpha}")
        if self.bias not in SCHEDULES:
            raise ValueError(f"unknown bias schedule {self.bias!r}")
        if not math.isfinite(self.update_std):
            raise ValueError(f"alpha times the expected amount must be "
                             f"finite, got {self.alpha:g} x "
                             f"{self.expected_amount}")

    def update_mean(self, j: int) -> float:
        b = SCHEDULES[self.bias]
        return b[j - 1] * self.expected_amount if 1 <= j <= HORIZON else 0.0

    @property
    def update_std(self) -> float:
        return self.alpha * self.expected_amount


def long_term_forecast(scenario: ScenarioParams) -> int:
    """Initial forecast value x_k = E * (1 - sum(b)) (module docstring)."""
    shift = float_sum(SCHEDULES[scenario.bias])
    return round(scenario.expected_amount * (1.0 - shift))


def advance(value: int, js: range, means: tuple[float, ...], std: float,
            normals: Iterator[float] | None,
            eps: list[int] | None = None) -> tuple[int, ...]:
    """One stream's values in rising j, from its long-term `value` and one
    update per j of `js` (falling): `means[j] + z * std` for the next of the
    stream's standard `normals` z, redrawn until it falls in [-prev, prev +
    2 * mean], rounded and clamped to the interval's integer bounds.  A
    negative mean of -prev or less collapses the interval, and the update is
    0.  A zero `std` draws nothing (`normals` may be None) and takes the
    mean, which lies in the interval; after 10,000 draws outside it an
    update silently takes the mean clamped into it.  j = 0 firms the order
    as it stands.  A replay's epsilons `eps`, one per j of `js`, replace the
    updates."""
    if eps is not None:   # running sums of the replayed updates
        return tuple([value := value + e for e in eps][::-1])
    values = []
    draw = normals.__next__ if std > 0 else None
    for j in js:
        mean = means[j]
        if j and (mean >= 0 or value > -mean):
            lo, hi = -float(value), value + 2.0 * mean
            x = mean + draw() * std if draw else mean
            if not lo <= x <= hi:
                for _ in range(9999):
                    x = mean + draw() * std
                    if lo <= x <= hi:
                        break
                else:
                    x = min(max(mean, lo), hi)
            r = round(x)
            # the integer bounds are [-value, floor(hi)], and x >= -value
            # rounds to no less, so only the upper one can bind
            value += r if r <= hi else math.floor(hi)
        values.append(value)
    return tuple(values[::-1])


def substream_seed(*parts) -> int:
    """Stable 64-bit seed from hashable key parts (platform independent)."""
    text = "|".join(map(str, parts))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


def stream_rng(base_seed: int, replication: int, product: int,
               due: int) -> random.Random:
    """RNG substream of one customer order, shared across parameter settings."""
    return random.Random(substream_seed(base_seed, replication, "demand",
                                        product, due))


class StreamNormals:
    """The standard normals one (seed, replication) has drawn so far, for
    every run of it (module docstring): an `array('d')` per demand stream
    (product, due period), which `replay` hands out; the last tape built on
    them under its `key`; and the shop substream's, which `shop` hands
    out."""

    def __init__(self, base_seed: int, replication: int):
        self.base_seed, self.replication = base_seed, replication
        self.streams: dict[tuple[int, int], array] = {}
        self.key = self.tape = None
        self.shop_normals = array("d")
        self._shop_rng = random.Random(substream_seed(base_seed, replication,
                                                      "shop"))

    def replay(self, product: int, due: int,
               stream_rng) -> Iterator[float]:
        """The stream's standard normals: the stored ones, then fresh
        draws of its generator, seeded at the first draw past the store and
        advanced past the stored count; fresh draws join the store."""
        zs = self.streams.setdefault((product, due), array("d"))
        yield from zs
        gauss = stream_rng(self.base_seed, self.replication, product,
                           due).gauss
        for _ in zs:   # mu and sigma have no defaults before Python 3.11
            gauss(0.0, 1.0)
        while True:
            z = gauss(0.0, 1.0)   # 0.0 + z * 1.0: z, but for the sign of a zero
            zs.append(z)
            yield z

    def shop(self) -> Iterator[float]:
        """The shop substream's standard normals from its start, stored,
        then fresh draws that join the store.  Readers may interleave: only
        the first to pass the store draws, so each reads the same run."""
        zs, normalvariate = self.shop_normals, self._shop_rng.normalvariate
        yield from zs
        i = len(zs)
        while True:
            if i == len(zs):
                zs.append(normalvariate(0.0, 1.0))
            yield zs[i]
            i += 1


DUMP_HEADER = ("product", "due_date", "j", "epsilon", "value")


def dump_tape(tape: dict, scenario: ScenarioParams, path: str) -> None:
    """Write a forecast tape (`driver.build_tape`, indexed by due period) as
    CSV by product and due date: per stream the long-term starting value at
    j = H + 1, then one row per update."""
    streams = [(product, due, values) for product, column in sorted(tape.items())
               for due, values in enumerate(column) if values is not None]
    start = long_term_forecast(scenario)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(DUMP_HEADER)
        for product, due, values in streams:
            prev = start
            w.writerow([product, due, HORIZON + 1, 0, prev])
            for j, value in zip(range(min(HORIZON, due - 1), -1, -1),
                                reversed(values)):
                w.writerow([product, due, j, value - prev, value])
                prev = value


def load_replay(path: str) -> dict[tuple[int, int, int], int]:
    """Read a tape dump back as {(product, due, j): epsilon} for replay;
    each stream's j = H + 1 entry holds its long-term value instead.  A
    row whose key an earlier row holds is refused, not replayed over it."""
    replay: dict[tuple[int, int, int], int] = {}
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header) != DUMP_HEADER:
            raise ValueError(f"replay file {path} has wrong header {header}")
        for lineno, row in enumerate(reader, start=2):
            try:
                product, due, j, eps, value = map(int, row)
            except ValueError as exc:
                raise ValueError(f"replay file {path} line {lineno}: {row}") from exc
            if (product, due, j) in replay:
                raise ValueError(f"replay file {path} line {lineno}: repeats "
                                 f"product {product} due {due} j={j}")
            replay[product, due, j] = value if j > HORIZON else eps
    return replay
