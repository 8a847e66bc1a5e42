"""Scale wall time to a reference machine speed.

The hosts this benchmark runs on are shared, and their speed drifts:
a fixed pure-Python loop was measured 1.4 ms in one minute and 2.2 ms a
minute later, and every workload moved with it.  Longer runs do not
average that out.  The speed also flips between a slow and a fast mode
(about 2x apart) within a fraction of a second, so one short reading can
be far from the speed a long request ran at.

So the benchmark times a fixed calibration loop (tuples, frozensets, dict
stores, isinstance: the operations rsol spends its time on) whenever a
quarter second of timed work has passed, with the clock paused; the
longer the stretch of work since the last calibration, the more loops it
times.  A calibration gives the factor

    REFERENCE_S / (mean loop time)

and the requests between two calibrations are scaled by the mean of the
two factors.  Reported times therefore read as on a host where the loop
takes REFERENCE_S.  The loop is benchmark code, so a change to rsol
cannot alter it; a change that slows the whole process rather than its
own code paths (a busy background thread, say) would slow the loop too
and is hidden from the timings.
"""

from __future__ import annotations

from array import array
from time import perf_counter

REFERENCE_S = 0.0015     # the loop's time on the host the bounds were set on
UNITS = 5                # fewest loops timed per calibration
UNIT_EVERY_S = 0.05      # one more loop per this much work since the last one
MAX_UNITS = 40
REFRESH_S = 0.25         # timed work between calibrations


def _unit() -> int:
    acc = 0
    seen = {}
    for i in range(3000):
        t = (i % 17, i % 5, i % 3, i & 1)
        seen[frozenset(t)] = t
        acc += len(t) if isinstance(t, tuple) else 0
    return acc + len(seen)


def speed_factor(units: int = UNITS) -> float:
    """REFERENCE_S over the mean time of `units` calibration loops now."""
    start = perf_counter()
    for _ in range(units):
        _unit()
    return REFERENCE_S * units / (perf_counter() - start)


class ScaledClock:
    """Request wall times plus the calibrations taken between them."""

    def __init__(self):
        # flat arrays, not a tuple per calibration: small objects that live
        # to the end of the run would pin the memory of the large
        # short-lived ones allocated around them (see peak_rss_mb)
        self.walls = array("d")
        self.mark_at = array("q", [0])          # requests before each calibration
        self.factors = array("d", [speed_factor()])
        self._since = 0.0

    def add(self, wall_s: float) -> None:
        """Record one request's wall time; may calibrate (call it with the
        clock paused)."""
        self.walls.append(wall_s)
        self._since += wall_s
        if self._since >= REFRESH_S:
            self._calibrate()

    def _calibrate(self) -> None:
        units = min(MAX_UNITS, max(UNITS, round(self._since / UNIT_EVERY_S)))
        self.mark_at.append(len(self.walls))
        self.factors.append(speed_factor(units))
        self._since = 0.0

    def scaled(self) -> array:
        """Every request's time times the mean factor of the calibrations
        before and after it."""
        if self.mark_at[-1] != len(self.walls):
            self._calibrate()
        out = array("d")
        for i in range(len(self.factors) - 1):
            factor = (self.factors[i] + self.factors[i + 1]) / 2
            out.extend(w * factor for w in self.walls[self.mark_at[i]:self.mark_at[i + 1]])
        return out
