"""Host speed correction for timings taken on a shared machine.

A VM that shares its host can run the same instructions at different
speeds from one second to the next.  The same pure-Python loop took
anywhere from 34 to 64 ms on the baseline machine.  Averaging over longer
runs does not remove that drift, because it lasts minutes.

So the benchmark measures the host's speed next to the work it times.
A probe times a fixed reference loop, and the speed is the loop's baseline
duration divided by its duration now.  Each unit of work is timed in host
seconds and multiplied by the mean speed of the probes before and after it.
The result is the seconds the work would have taken at the baseline
machine's speed.

BASELINE_S only fixes the unit.  The reference loop allocates no container
objects, so garbage collection settings and the program's heap size cannot
change its speed.
"""

from __future__ import annotations

import statistics
import time

REFERENCE_ITERATIONS = 30_000
BASELINE_S = 0.004      # typical reference-loop time, baseline machine
PROBE_SAMPLES = 3
PROBE_INTERVAL = 0.05   # least host seconds of work between probes


def reference_loop(iterations: int = REFERENCE_ITERATIONS) -> int:
    table = dict.fromkeys(range(64), 0)
    total = 0
    for i in range(iterations):
        key = i & 63
        table[key] = table[key] + i
        total += i % 7
    return total


def probe(samples: int = PROBE_SAMPLES, clock=time.perf_counter) -> float:
    """Host speed now, relative to the baseline machine."""
    times = []
    for _ in range(samples):
        start = clock()
        reference_loop()
        times.append(clock() - start)
    return BASELINE_S / statistics.median(times)


class SpeedTimer:
    """Times consecutive units of work in baseline seconds.

    `mark()` ends a unit that started at the previous `mark()`, at
    `restart()` or at construction; `close()` takes the last probe.  Probe
    time is never part of a unit.  Units shorter than PROBE_INTERVAL share
    their probes.
    """

    def __init__(self, clock=time.perf_counter, probe=probe):
        self._clock, self._probe = clock, probe
        self.raw: list[float] = []       # host seconds per unit
        self.scaled: list[float] = []    # baseline seconds per unit
        self._pending: list[float] = []
        self._speed = probe()
        self._probed = self._last = clock()

    def clock(self) -> float:
        return self._clock()

    def restart(self) -> None:
        self._last = self._clock()

    def mark(self, end: float | None = None) -> None:
        """End a unit now, or at `end`, an earlier reading of the clock."""
        now = self._clock() if end is None else end
        self._pending.append(now - self._last)
        if now - self._probed >= PROBE_INTERVAL:
            self._flush()
        self._last = self._clock()

    def close(self) -> list[float]:
        if self._pending:
            self._flush()
        return self.scaled

    def _flush(self) -> None:
        speed = self._probe()
        factor = (self._speed + speed) / 2
        self.raw += self._pending
        self.scaled += [d * factor for d in self._pending]
        self._pending = []
        self._speed = speed
        self._probed = self._clock()

    @property
    def speed(self) -> float:
        """Mean host speed over the closed units, weighted by their time."""
        return sum(self.scaled) / sum(self.raw)
