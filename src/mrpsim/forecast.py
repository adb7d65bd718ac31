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
drifts toward the true expectation as updates arrive.

Sampling for each (replication, product, due date) uses an isolated RNG
substream derived by hashing, so demand realizations are identical across
planning-parameter settings and netting modes (common random numbers), and
independent of the order in which streams are advanced.  Runs read every
value from a forecast tape (`driver.build_tape`), built once per (seed,
replication, instance); `dump_tape` writes one and `load_replay` reads it
back as epsilons to inject.
"""

from __future__ import annotations

import csv
import hashlib
import math
import random
from dataclasses import dataclass

HORIZON = 10  # forecast updates start H periods before delivery

_TEMP_OVER_B = {10: 0.0, 9: 0.0, 8: 0.04, 7: 0.04, 6: 0.08,
                5: 0.0, 4: 0.0, 3: -0.08, 2: -0.04, 1: -0.04}


@dataclass(frozen=True)
class BiasSchedule:
    """Per-update bias factors b_j, indexed by periods-before-delivery j."""

    name: str
    b: tuple[float, ...]      # b[j-1] is the factor applied j periods before delivery
    permanent: bool = False

    def factor(self, j: int) -> float:
        return self.b[j - 1] if 1 <= j <= len(self.b) else 0.0

    @property
    def total(self) -> float:
        return sum(self.b)


def _temp(name: str, sign: float) -> BiasSchedule:
    return BiasSchedule(name, tuple(sign * _TEMP_OVER_B[j] for j in range(1, 11)))


SCHEDULES: dict[str, BiasSchedule] = {
    "unbiased": BiasSchedule("unbiased", (0.0,) * HORIZON),
    "temporary_overbooking": _temp("temporary_overbooking", 1.0),
    "temporary_underbooking": _temp("temporary_underbooking", -1.0),
    "permanent_overbooking": BiasSchedule("permanent_overbooking",
                                          (-0.04,) * HORIZON, permanent=True),
    "permanent_underbooking": BiasSchedule("permanent_underbooking",
                                           (0.04,) * HORIZON, permanent=True),
}
BIASED_SCHEDULES = ("temporary_overbooking", "temporary_underbooking",
                    "permanent_overbooking", "permanent_underbooking")


@dataclass(frozen=True)
class ScenarioParams:
    """Forecast-quality scenario: noise level alpha, bias switch beta, schedule."""

    alpha: float = 0.0
    beta: int = 0
    schedule: BiasSchedule = SCHEDULES["unbiased"]
    horizon: int = HORIZON
    expected_amount: int = 800

    def __post_init__(self) -> None:
        if self.alpha < 0:
            raise ValueError("alpha must be non-negative")
        if self.beta not in (0, 1):
            raise ValueError("beta must be 0 or 1")

    def update_mean(self, j: int) -> float:
        return self.beta * self.schedule.factor(j) * self.expected_amount

    @property
    def update_std(self) -> float:
        return self.alpha * self.expected_amount


def long_term_forecast(scenario: ScenarioParams) -> int:
    """Initial forecast value x_k.

    Permanent bias schedules shift the long-term value so that the updates,
    whose means sum to beta * sum(b) * E, steer the forecast back to the true
    expectation E.  Temporary schedules sum to zero and unbiased scenarios
    have no shift, so both start at E.
    """
    shift = scenario.beta * scenario.schedule.total
    return round(scenario.expected_amount * (1.0 - shift))


def sample_update(prev_value: int, mean: float, std: float,
                  rng: random.Random) -> int:
    """One truncated-normal update term, rounded to whole pieces.

    Truncation interval is [-prev_value, prev_value + 2 * mean].  When the
    mean is negative and at least as large in magnitude as the previous
    value, the interval collapses and the update is 0.
    """
    if mean < 0 and prev_value <= -mean:
        return 0
    lo = -float(prev_value)
    hi = float(prev_value) + 2.0 * mean
    if std <= 0:
        x = min(max(mean, lo), hi)
    else:
        for _ in range(10000):
            x = rng.gauss(mean, std)
            if lo <= x <= hi:
                break
        else:
            x = min(max(mean, lo), hi)
    r = round(x)
    # integer bounds keep the rounded draw inside the interval
    return min(max(r, math.ceil(lo)), math.floor(hi))


class ForecastStream:
    """Mutable forecast value of one customer order."""

    __slots__ = ("product", "due", "value")

    def __init__(self, product: int, due: int, long_term: int):
        self.product = product
        self.due = due
        self.value = long_term

    def apply(self, j: int, eps: int) -> None:
        self.value += eps
        if self.value < 0:
            raise ValueError(f"forecast of product {self.product} due {self.due} "
                             f"went negative at j={j}")


def advance(stream: ForecastStream, j: int, scenario: ScenarioParams,
            rng: random.Random, injected_eps: int | None = None) -> int:
    """Apply the update j periods before delivery and return the term used.

    An injected epsilon (replay) bypasses sampling.  j = 0 always applies a
    zero term, firming the order at its final forecast value.
    """
    if j > scenario.horizon:
        return 0
    if injected_eps is not None:
        eps = injected_eps
    elif j == 0:
        eps = 0
    else:
        eps = sample_update(stream.value, scenario.update_mean(j),
                            scenario.update_std, rng)
    stream.apply(j, eps)
    return eps


def substream_seed(*parts) -> int:
    """Stable 64-bit seed from hashable key parts (platform independent)."""
    text = "|".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


def stream_rng(base_seed: int, replication: int, product: int,
               due: int) -> random.Random:
    """RNG substream of one customer order, shared across parameter settings."""
    return random.Random(substream_seed(base_seed, replication, "demand",
                                        product, due))


DUMP_HEADER = ("product", "due_date", "j", "epsilon", "value")


def dump_tape(tape: dict, scenario: ScenarioParams, path: str) -> None:
    """Write a forecast tape (`driver.build_tape`) as CSV: per stream the
    long-term starting value at j = H + 1, then one row per update."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(DUMP_HEADER)
        for (product, due), values in sorted(tape.items()):
            prev = long_term_forecast(scenario)
            w.writerow([product, due, HORIZON + 1, 0, prev])
            for j, value in zip(range(min(scenario.horizon, due - 1), -1, -1),
                                reversed(values)):
                w.writerow([product, due, j, value - prev, value])
                prev = value


def load_replay(path: str) -> dict[tuple[int, int, int], int]:
    """Read a tape dump back as {(product, due, j): epsilon} for replay."""
    replay: dict[tuple[int, int, int], int] = {}
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header) != DUMP_HEADER:
            raise ValueError(f"replay file {path} has wrong header {header}")
        for lineno, row in enumerate(reader, start=2):
            try:
                product, due, j, eps = int(row[0]), int(row[1]), int(row[2]), int(row[3])
            except (ValueError, IndexError) as exc:
                raise ValueError(f"replay file {path} line {lineno}: {row}") from exc
            if j <= HORIZON:
                replay[(product, due, j)] = eps
    return replay
