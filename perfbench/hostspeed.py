"""Host speed sampling, to correct op timings for a host shared with others.

On a shared host the same pure-Python work was seen to take anywhere from
1x to 2x as long, in stretches of seconds to minutes, while the process
was on the CPU the whole time (process time equalled wall time), so
repeats and medians within one run cannot remove it. While timing, a
``SIGALRM`` interval timer runs a fixed pure-Python probe loop every 50 ms
(about 0.5% of the time) and records how long it took. An interval's
scaled duration is its host duration times ``REFERENCE_PROBE_S`` over the
median probe time around it: the time the work would take at the speed at
which the probe loop takes ``REFERENCE_PROBE_S``.

The signal handler runs between bytecodes of the measured code and touches
nothing of kspend, so outputs and trace hashes do not change.
"""

from __future__ import annotations

import signal
import statistics
from array import array
from bisect import bisect_left, bisect_right
from time import perf_counter

PERIOD_S = 0.05
PROBE_LOOPS = 3000
# the probe's time on a shared 2-core x86-64 host (Python 3.11) when it ran fastest
REFERENCE_PROBE_S = 2.0e-4
WINDOW_S = 2 * PERIOD_S  # probes this close to an interval describe its speed


def _probe() -> int:
    x = 0
    for i in range(PROBE_LOOPS):
        x += i * i % 7
    return x


class HostSpeed:
    """Context manager that samples the probe loop's time while open."""

    def __init__(self):
        self.at = array("d")
        self.took = array("d")
        self._previous = None

    def _sample(self, signum, frame) -> None:
        started = perf_counter()
        _probe()
        self.at.append(started)
        self.took.append(perf_counter() - started)

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scaled(self, start: float, end: float) -> float:
        """Duration of [start, end] at the reference speed, probes excluded."""
        inside = sum(self.took[bisect_left(self.at, start):bisect_left(self.at, end)])
        low = bisect_left(self.at, start - WINDOW_S)
        high = bisect_right(self.at, end + WINDOW_S)
        if low == high:  # no probe near: leave the duration as measured
            return end - start - inside
        probe = statistics.median(self.took[low:high])
        return (end - start - inside) * REFERENCE_PROBE_S / probe

    def median_probe(self) -> float | None:
        return statistics.median(self.took) if self.took else None
