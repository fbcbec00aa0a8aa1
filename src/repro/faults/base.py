"""Base class and hook protocol for cell fault models.

A fault model distorts the behaviour of an :class:`repro.memory.sram.Sram`
through four hooks called from the memory's access paths:

``on_write``
    called for every physical word actually written; may alter the value
    that lands in the cell (stuck-at, transition faults).
``on_read``
    called for every physical word actually read; may alter the observed
    value and/or disturb the stored one (stuck-open read disturb, state
    coupling).
``on_any_write``
    called after *every* completed write anywhere in the array; coupling
    faults watch their aggressor here and flip their victim via
    :meth:`Sram.force_bit`.
``on_elapse``
    called when the memory idles (march pauses); retention faults decay
    here.
``on_cycle_start`` / ``on_cycle_end``
    called only from :meth:`Sram.cycle` around a same-cycle multi-port
    operation group, bracketing the per-access hooks above; faults that
    are sensitised by *simultaneous* accesses (contention PAF,
    cross-port coupling — :mod:`repro.faults.concurrent`) record the
    group's port/word co-access pattern here and consult it from their
    read/write hooks.  The sequential access paths never fire these, so
    such faults are — by construction — transparent to one-port-at-a-
    time stimuli.

``install``/``remove`` let decoder faults rewrite the address map, and
``reset`` clears dynamic state (counters, armed flags) between runs so a
fault universe can be reused.
"""

from __future__ import annotations

import abc


class CellFault(abc.ABC):
    """Abstract behavioural memory fault.

    Subclasses override only the hooks relevant to their mechanism; the
    defaults are transparent (no behavioural change).
    """

    #: Short taxonomy tag ("SAF", "TF", "CFin", ...) used by coverage
    #: reports and the diagnostics classifier.
    kind: str = "?"

    def install(self, memory) -> None:
        """One-time installation side effects (decoder rewrites etc.)."""

    def remove(self, memory) -> None:
        """Undo :meth:`install`."""

    def reset(self) -> None:
        """Clear dynamic state between test runs."""

    def on_write(self, memory, port: int, word: int, old: int, new: int) -> int:
        """Filter the value being written into physical ``word``."""
        return new

    def on_read(self, memory, port: int, word: int, value: int) -> int:
        """Filter the value observed when reading physical ``word``."""
        return value

    def on_any_write(self, memory, port: int, word: int, old: int, new: int) -> None:
        """Observe a completed write anywhere in the array."""

    def on_elapse(self, memory, duration: int) -> None:
        """React to idle time (retention decay)."""

    def on_cycle_start(self, memory, group) -> None:
        """Observe a same-cycle multi-port op group before it executes.

        ``group`` is the tuple of per-port operations of one
        :meth:`~repro.memory.sram.Sram.cycle` call, in ascending port
        order.  Any per-cycle state recorded here must be cleared in
        :meth:`on_cycle_end` (and :meth:`reset`): the sequential access
        paths never call these hooks.
        """

    def on_cycle_end(self, memory, group) -> None:
        """Clear per-cycle state after the group committed."""

    @abc.abstractmethod
    def describe(self) -> str:
        """One-line human-readable description for reports."""

    def __repr__(self) -> str:
        return f"<{type(self).__name__}: {self.describe()}>"


def bit_of(value: int, bit: int) -> int:
    """Extract one bit of a word value."""
    return (value >> bit) & 1


def with_bit(value: int, bit: int, bit_value: int) -> int:
    """Return ``value`` with one bit replaced."""
    if bit_value:
        return value | (1 << bit)
    return value & ~(1 << bit)
