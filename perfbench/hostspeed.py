"""Host-speed probe: how much slower the host is running right now.

On a shared host the physical core under a vCPU is sometimes busy with
another tenant's work, and every instruction of ours then takes longer
-- wall time and CPU time alike, with no steal time to show for it.
The slowdown comes in phases of seconds to minutes, long enough to
cover a whole benchmark run.

:class:`HostProbe` samples it while an iteration runs: every
:data:`INTERVAL_S` a ``SIGALRM`` handler times a fixed pure-Python
loop.  The median sample divided by :data:`REFERENCE_S` (the loop's
duration on an uncontended core of the reference host) is the
iteration's slowdown, and the benchmark divides its bounded timings
by it.  The loop costs about 0.4% of the iteration, on every commit
alike.  Interval timers are not inherited across ``fork``, so engine
workers are never interrupted.

An iteration that starts worker processes is bracketed instead
(``HostProbe(bracket=True)``): the loop is timed back to back for
:data:`BRACKET_S` just before and just after it, while no worker is
alive.  Sampled during the iteration, the probe would share the CPUs
and the interpreter lock with the orchestrator it measures, so a change
to the program's own load would move the slowdown and cancel part of
its own effect.
"""

from __future__ import annotations

import signal
import statistics
import time

#: Seconds between samples.
INTERVAL_S = 0.05

#: Seconds of back-to-back samples on each side of a bracketed iteration.
BRACKET_S = 0.25

#: Duration of one probe on an uncontended core of the host the
#: benchmark was built on (2.0 GHz Xeon vCPU, CPython 3.11).  Only the
#: ratio matters when two commits are compared on one host.
REFERENCE_S = 165e-6

_LOOP = range(4000)


def _probe() -> float:
    started = time.perf_counter()
    total = 0
    for i in _LOOP:
        total += i
    return time.perf_counter() - started


class HostProbe:
    """Context manager sampling host speed in the main thread."""

    def __init__(self, bracket: bool = False) -> None:
        self.bracket = bracket
        self.samples = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        self.samples.append(_probe())

    def _burst(self) -> None:
        deadline = time.perf_counter() + BRACKET_S
        while time.perf_counter() < deadline:
            self.samples.append(_probe())

    def __enter__(self) -> "HostProbe":
        self.samples = []
        if self.bracket:
            self._burst()
        else:
            self._previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.bracket:
            self._burst()
        else:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._previous)

    @property
    def slowdown(self) -> float:
        """Median probe time over the reference (1.0: uncontended)."""
        if not self.samples:
            return 1.0
        return statistics.median(self.samples) / REFERENCE_S
