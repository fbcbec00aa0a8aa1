"""Stuck-open / disconnected pull-up faults (SOF).

The paper's March C++ / A++ variants replace every read by *three* reads
"to excite and detect disconnected pull-up/down devices in the memory
cells".  The mechanism: a cell with a broken pull-up (pull-down) keeps
its state only dynamically; every read of the affected value disturbs the
weakly held node, and after a small number of consecutive reads the cell
flips.  A single read therefore still returns the correct value, but the
third of three back-to-back reads observes the flip — which is exactly
why the '++' algorithms triple their reads and why the plain algorithms
miss the defect.

Model: reading the cell while it stores ``weak_value`` increments a
disturb counter; once the counter reaches ``disturb_threshold`` the cell
flips (subsequent reads observe the complement).  Any write to the cell
restores the node and resets the counter.
"""

from __future__ import annotations

from repro.faults.base import CellFault, bit_of


class StuckOpenFault(CellFault):
    """Disconnected pull-up/down at cell ``(word, bit)``.

    Args:
        word: physical word of the weak cell.
        bit: bit position within the word.
        weak_value: the state held only dynamically (1 for a broken
            pull-up, 0 for a broken pull-down).
        disturb_threshold: consecutive reads of ``weak_value`` after
            which the cell flips.  The default of 2 makes the defect
            invisible to single- and double-read march elements but
            detected by the paper's triple reads.
    """

    kind = "SOF"

    def __init__(
        self, word: int, bit: int, weak_value: int, disturb_threshold: int = 2
    ) -> None:
        if weak_value not in (0, 1):
            raise ValueError(f"weak value must be 0 or 1, got {weak_value!r}")
        if disturb_threshold < 1:
            raise ValueError("disturb threshold must be at least 1")
        self.word = word
        self.bit = bit
        self.weak_value = weak_value
        self.disturb_threshold = disturb_threshold
        self._disturbs = 0

    def reset(self) -> None:
        self._disturbs = 0

    def on_write(self, memory, port: int, word: int, old: int, new: int) -> int:
        if word == self.word:
            self._disturbs = 0  # write restores the weak node
        return new

    def on_read(self, memory, port: int, word: int, value: int) -> int:
        if word != self.word:
            return value
        if bit_of(value, self.bit) != self.weak_value:
            return value
        self._disturbs += 1
        if self._disturbs >= self.disturb_threshold:
            # The weakly held node collapses: flip the stored cell so the
            # *next* read observes the complement.  The current read
            # still returns the pre-collapse value (charge sharing decays
            # after the sense amplifier fired).
            memory.force_bit(self.word, self.bit, self.weak_value ^ 1)
            self._disturbs = 0
        return value

    def describe(self) -> str:
        device = "pull-up" if self.weak_value == 1 else "pull-down"
        return (
            f"SOF: cell ({self.word},{self.bit}) disconnected {device} "
            f"(flips after {self.disturb_threshold} reads of {self.weak_value})"
        )
