"""Retention time base shared by the SRAM model and retention faults.

Data-retention faults (DRFs) are time-dependent: a weak cell holds its
value only for a bounded *decay time*.  March algorithms detect them with
explicit pauses (the ``Hold`` steps of March C+ / A+), so the memory
model needs a notion of elapsed idle time.  :class:`RetentionClock`
accumulates idle time between accesses; any access resets nothing by
itself — fault models decide how elapsed time affects their cell.
"""

from __future__ import annotations


class RetentionClock:
    """Monotonic idle-time accumulator for data-retention modelling.

    Time units are arbitrary; the convention throughout the library is
    that ordinary read/write cycles contribute 1 unit each and explicit
    march pauses contribute their ``duration``.  Default DRF decay times
    (500 units) sit far above any per-cycle accumulation of the
    memory sizes used in tests, so only explicit pauses trigger decay.

    Attributes:
        now: current absolute time; the memory's access paths advance
            it in place, by one per access cycle.
    """

    def __init__(self) -> None:
        self.now = 0

    def advance(self, duration: int) -> None:
        """Advance time by a non-negative number of units."""
        if duration < 0:
            raise ValueError(f"time cannot move backwards ({duration})")
        self.now += duration

    def reset(self) -> None:
        self.now = 0
