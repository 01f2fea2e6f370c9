"""Host speed, measured by a fixed reference loop run between ops.

On a shared 2-CPU sandbox the speed of pure-Python code drifts by a
quarter or more over tens of seconds and minutes, with no steal time and
with CPU time following wall time: `census(3, 3)` took 157 ms a run in one
stretch of 18 s and 268 ms in another a minute later.  Medians within a run
do not remove a drift that lasts the whole run.  So the benchmark times a
fixed loop, which does not touch the library, between ops, and scales each
op's time by how much slower than nominal the loop ran around that op:

    adjusted = measured * NOMINAL_S / (median of the samples around the op)

An adjusted time is the time the op would take with the host at the speed
it had when the nominal time was taken.  A change to the library moves it
as much as it moves the measured time; a change of host speed moves it much
less.  The loop builds tuples and frozensets and hashes them into a dict
and a set, like the library: a loop of plain int arithmetic, or one chasing
pointers through a large list, followed the drift of `census` less well.
Over ten stretches of 18 s, the range of `census(3, 3)` medians fell from
0.31 of their median to 0.14, and that of a `hom-deep` round from 0.27 to
0.20; a fresh `import wplarcs` process gained nothing.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time
from typing import List, Sequence, Tuple

SIDE = 80  # the loop below makes about SIDE**2 / 2 steps, about 4 ms
# Median time of `reference_loop()` on a 2-CPU sandbox with CPython 3.11
# when the benchmark was added.  Any fixed value would do: it sets the
# scale of the adjusted times, not their trend.
NOMINAL_S = 0.004
EVERY_S = 0.2  # op time between two bursts of samples, at most
BURST = 3  # samples taken back to back at each point
# An op's speed is the median of the samples taken within SPAN times its
# length plus MARGIN_S of it, and at least of the WINDOW nearest ones (the
# bursts just before and after it).  Host speed changes within a few hundred
# milliseconds, so a short op takes only the nearest samples; a long op
# averages the speed over its length, and so do its samples.
SPAN = 2.0
MARGIN_S = 0.2
WINDOW = 2 * BURST


def reference_loop() -> int:
    """Fixed work of the kind the library does: tuples, frozensets, hashing, dict and set look-ups."""
    memo = {}
    seen = set()
    for a in range(SIDE):
        for b in range(a + 2, SIDE):
            key = frozenset(((a, b), (a + 1, b), (a, b - 1)))
            memo[key] = memo.get(key, 0) + _step(a, b)
            seen.add((a, b))
    return len(seen) + len(memo)


def _step(a: int, b: int) -> int:
    return (a ^ b) % 11


def sample() -> float:
    """Seconds one `reference_loop()` takes now, with the cyclic collector held off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference_loop()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def burst() -> List[Tuple[float, float]]:
    """BURST samples, each as (perf_counter time it started, seconds)."""
    return [(time.perf_counter(), sample()) for _ in range(BURST)]


def factors(
    samples: Sequence[Tuple[float, float]], starts: Sequence[float], lengths: Sequence[float]
) -> List[float]:
    """Per op, NOMINAL_S over the median speed sample around it.

    `samples` holds (time, seconds) in order of time; op `i` ran from
    `starts[i]` for `lengths[i]` seconds, and no sample falls inside it.
    """
    times = [t for t, _ in samples]
    out = []
    for start, length in zip(starts, lengths):
        end = start + length
        reach = SPAN * length + MARGIN_S
        lo = bisect.bisect_left(times, start - reach)
        hi = bisect.bisect_right(times, end + reach)
        # Too few within reach: widen towards whichever side is nearer.
        while hi - lo < min(WINDOW, len(samples)):
            if lo > 0 and (hi == len(samples) or start - times[lo - 1] <= times[hi] - end):
                lo -= 1
            else:
                hi += 1
        out.append(NOMINAL_S / statistics.median(s for _, s in samples[lo:hi]))
    return out
