"""Host-speed probe, so that times from a shared, noisy host compare.

On a shared host the same pure-Python loop can take anywhere from 1x to
1.8x its best time within one minute, and the package's run times follow.
``HostProbe`` times a fixed probe loop at every operation boundary
(``mark``) and every ``PROBE_EVERY_S`` CPU seconds in between (from a
``SIGVTALRM`` handler, so long operations are sampled too).  A time
measured between two marks is scaled by ``REFERENCE_PROBE_S`` over the mean
probe time between them, i.e. to a host on which the probe takes
``REFERENCE_PROBE_S``.  The probe's own time is left out of ``clock()`` and
``cpu_clock()``.

The probe is benchmark code: a change to the package cannot speed it up.
"""

from __future__ import annotations

import signal
import statistics
import time

PROBE_LOOPS = 10_000
PROBE_EVERY_S = 0.2
# The probe's mean duration on an idle core of the host that recorded the
# benchmark's baseline; it only sets the unit of the scaled times.
REFERENCE_PROBE_S = 0.002


def _probe_loop() -> None:
    table: dict[int, int] = {}
    total = 0
    for i in range(PROBE_LOOPS):
        k = (i * 7919) % 1009
        table[k] = table.get(k, 0) + i
        total += k * k


class HostProbe:
    """Samples the host's speed; periodically while open as a context."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0
        self._busy = False
        self._previous = None

    def sample(self, signum=None, frame=None) -> None:
        if self._busy:  # a timer signal arrived during a probe
            return
        self._busy = True
        try:  # a deadline signal may interrupt the probe
            start = time.perf_counter()
            _probe_loop()
            elapsed = time.perf_counter() - start
            self.samples.append(elapsed)
            self.spent += elapsed
        finally:
            self._busy = False

    def __enter__(self) -> "HostProbe":
        self._previous = signal.signal(signal.SIGVTALRM, self.sample)
        signal.setitimer(signal.ITIMER_VIRTUAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        signal.signal(signal.SIGVTALRM, self._previous)

    def mark(self) -> int:
        """Probe now; the returned index opens or closes an interval."""
        self.sample()
        return len(self.samples)

    def clock(self) -> float:
        """``perf_counter`` minus the time spent probing."""
        return time.perf_counter() - self.spent

    def cpu_clock(self) -> float:
        """``process_time`` minus the time spent probing."""
        return time.process_time() - self.spent

    def recent_factor(self, samples: int = 10) -> float:
        """Scale from the last few probes."""
        return self.factor(max(1, len(self.samples) - samples + 1))

    def factor(self, start: int = 1, end: int | None = None) -> float:
        """Scale for a time measured between marks ``start`` and ``end``
        (the whole record by default)."""
        return REFERENCE_PROBE_S / statistics.fmean(self.samples[start - 1 : end])
