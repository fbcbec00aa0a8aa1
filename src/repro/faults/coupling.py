"""Two-cell coupling faults (CFin, CFid, CFst).

Coupling faults involve an *aggressor* cell whose activity disturbs a
distinct *victim* cell:

* **Inversion coupling (CFin)** — a given transition of the aggressor
  inverts the victim.
* **Idempotent coupling (CFid)** — a given transition of the aggressor
  forces the victim to a fixed value.
* **State coupling (CFst)** — the victim is forced to a fixed value
  whenever the aggressor *is in* a given state (observed at read time).

March C detects all unlinked CFin/CFid/CFst between any two cells; the
shorter MATS-family tests do not, which the coverage experiments
demonstrate.
"""

from __future__ import annotations

from repro.faults.base import CellFault, bit_of, with_bit


class _TransitionTriggered(CellFault):
    """Shared machinery: watch an aggressor transition via on_any_write."""

    def __init__(
        self,
        aggressor_word: int,
        aggressor_bit: int,
        victim_word: int,
        victim_bit: int,
        rising: bool,
    ) -> None:
        if (aggressor_word, aggressor_bit) == (victim_word, victim_bit):
            raise ValueError("coupling fault needs distinct aggressor and victim")
        self.aggressor_word = aggressor_word
        self.aggressor_bit = aggressor_bit
        self.victim_word = victim_word
        self.victim_bit = victim_bit
        self.rising = bool(rising)

    def _triggered(self, word: int, old: int, new: int) -> bool:
        if word != self.aggressor_word:
            return False
        before = bit_of(old, self.aggressor_bit)
        after = bit_of(new, self.aggressor_bit)
        if self.rising:
            return before == 0 and after == 1
        return before == 1 and after == 0

    def _arrow(self) -> str:
        return "0->1" if self.rising else "1->0"


class InversionCouplingFault(_TransitionTriggered):
    """CFin: aggressor transition inverts the victim cell."""

    kind = "CFin"

    def on_any_write(self, memory, port: int, word: int, old: int, new: int) -> None:
        if self._triggered(word, old, new):
            current = bit_of(memory.peek(self.victim_word), self.victim_bit)
            memory.force_bit(self.victim_word, self.victim_bit, current ^ 1)

    def describe(self) -> str:
        return (
            f"CFin: ({self.aggressor_word},{self.aggressor_bit}) {self._arrow()} "
            f"inverts ({self.victim_word},{self.victim_bit})"
        )


class IdempotentCouplingFault(_TransitionTriggered):
    """CFid: aggressor transition forces the victim to ``forced_value``."""

    kind = "CFid"

    def __init__(
        self,
        aggressor_word: int,
        aggressor_bit: int,
        victim_word: int,
        victim_bit: int,
        rising: bool,
        forced_value: int,
    ) -> None:
        super().__init__(aggressor_word, aggressor_bit, victim_word, victim_bit, rising)
        if forced_value not in (0, 1):
            raise ValueError(f"forced value must be 0 or 1, got {forced_value!r}")
        self.forced_value = forced_value

    def on_any_write(self, memory, port: int, word: int, old: int, new: int) -> None:
        if self._triggered(word, old, new):
            memory.force_bit(self.victim_word, self.victim_bit, self.forced_value)

    def describe(self) -> str:
        return (
            f"CFid: ({self.aggressor_word},{self.aggressor_bit}) {self._arrow()} "
            f"forces ({self.victim_word},{self.victim_bit}) to {self.forced_value}"
        )


class StateCouplingFault(CellFault):
    """CFst: victim observed as ``forced_value`` while aggressor holds
    ``aggressor_state``.

    Modelled at read time: the bridge only distorts the victim's bit line
    while the aggressor's node is at the coupling state, so the stored
    value recovers once the aggressor changes.
    """

    kind = "CFst"

    def __init__(
        self,
        aggressor_word: int,
        aggressor_bit: int,
        victim_word: int,
        victim_bit: int,
        aggressor_state: int,
        forced_value: int,
    ) -> None:
        if (aggressor_word, aggressor_bit) == (victim_word, victim_bit):
            raise ValueError("coupling fault needs distinct aggressor and victim")
        if aggressor_state not in (0, 1) or forced_value not in (0, 1):
            raise ValueError("aggressor_state and forced_value must be 0 or 1")
        self.aggressor_word = aggressor_word
        self.aggressor_bit = aggressor_bit
        self.victim_word = victim_word
        self.victim_bit = victim_bit
        self.aggressor_state = aggressor_state
        self.forced_value = forced_value

    def on_read(self, memory, port: int, word: int, value: int) -> int:
        if word != self.victim_word:
            return value
        aggressor = bit_of(memory.peek(self.aggressor_word), self.aggressor_bit)
        if aggressor == self.aggressor_state:
            return with_bit(value, self.victim_bit, self.forced_value)
        return value

    def describe(self) -> str:
        return (
            f"CFst: ({self.victim_word},{self.victim_bit}) reads {self.forced_value} "
            f"while ({self.aggressor_word},{self.aggressor_bit})={self.aggressor_state}"
        )
