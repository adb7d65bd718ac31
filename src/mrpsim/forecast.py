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

Sampling for each (replication, product, due date) uses an isolated RNG
substream derived by hashing, so demand realizations are identical across
planning-parameter settings and netting modes (common random numbers), and
independent of the order in which streams are advanced.  Runs read every
value from a forecast tape (`driver.build_tape`), built once per (seed,
replication, instance); `dump_tape` writes one and `load_replay` reads it
back as epsilons to inject, with each stream's long-term value, which the
replaying run's must equal.
"""

from __future__ import annotations

import csv
import hashlib
import math
import random
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

    def update_mean(self, j: int) -> float:
        b = SCHEDULES[self.bias]
        return b[j - 1] * self.expected_amount if 1 <= j <= HORIZON else 0.0

    @property
    def update_std(self) -> float:
        return self.alpha * self.expected_amount


def long_term_forecast(scenario: ScenarioParams) -> int:
    """Initial forecast value x_k = E * (1 - sum(b)).

    Permanent bias schedules shift the long-term value so that the updates,
    whose means sum to sum(b) * E, steer the forecast back to the true
    expectation E.  Temporary schedules sum to zero and the unbiased
    schedule's factors are 0, so both start at E.
    """
    shift = float_sum(SCHEDULES[scenario.bias])
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


def advance(value: int, j: int, scenario: ScenarioParams,
            rng: random.Random, eps: int | None = None) -> int:
    """A stream's forecast value after its update j periods before delivery.

    A replayed epsilon `eps` bypasses sampling.  j = 0 leaves the value as
    it is, firming the order at its final forecast.
    """
    if eps is not None:
        return value + eps
    if j == 0:
        return value
    return value + sample_update(value, scenario.update_mean(j),
                                 scenario.update_std, rng)


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
    """Write a forecast tape (`driver.build_tape`, indexed by due period) as
    CSV by product and due date: per stream the long-term starting value at
    j = H + 1, then one row per update."""
    streams = [(product, due, values) for product, column in sorted(tape.items())
               for due, values in enumerate(column) if values is not None]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(DUMP_HEADER)
        for product, due, values in streams:
            prev = long_term_forecast(scenario)
            w.writerow([product, due, HORIZON + 1, 0, prev])
            for j, value in zip(range(min(HORIZON, due - 1), -1, -1),
                                reversed(values)):
                w.writerow([product, due, j, value - prev, value])
                prev = value


def load_replay(path: str) -> dict[tuple[int, int, int], int]:
    """Read a tape dump back as {(product, due, j): epsilon} for replay;
    each stream's j = H + 1 entry holds its long-term value instead."""
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
            replay[(product, due, j)] = value if j > HORIZON else eps
    return replay
