"""Transition faults (TF).

A transition fault prevents one cell from making one of its transitions:
an up-transition fault (⟨↑/0⟩) leaves the cell at 0 when 0→1 is written,
a down-transition fault (⟨↓/1⟩) leaves it at 1 when 1→0 is written.  The
classical detection condition is a read of the cell after the failing
transition was attempted, before any further write — which March C's
``^(r0,w1); ^(r1,w0)`` pairs provide for both polarities.
"""

from __future__ import annotations

from repro.faults.base import CellFault, bit_of, with_bit


class TransitionFault(CellFault):
    """Cell ``(word, bit)`` unable to transition ``rising`` or falling.

    Args:
        word: physical word of the faulty cell.
        bit: bit position within the word.
        rising: True for an up-transition (0→1 fails) fault; False for a
            down-transition (1→0 fails) fault.
    """

    kind = "TF"

    def __init__(self, word: int, bit: int, rising: bool) -> None:
        self.word = word
        self.bit = bit
        self.rising = bool(rising)

    def on_write(self, memory, port: int, word: int, old: int, new: int) -> int:
        if word != self.word:
            return new
        before = bit_of(old, self.bit)
        after = bit_of(new, self.bit)
        if self.rising and before == 0 and after == 1:
            return with_bit(new, self.bit, 0)  # up transition fails
        if not self.rising and before == 1 and after == 0:
            return with_bit(new, self.bit, 1)  # down transition fails
        return new

    def describe(self) -> str:
        arrow = "0->1" if self.rising else "1->0"
        return f"TF: cell ({self.word},{self.bit}) cannot transition {arrow}"
