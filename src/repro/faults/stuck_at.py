"""Stuck-at faults (SAF).

A stuck-at fault ties one memory cell permanently to logic 0 or 1: writes
of the opposite value are lost and reads always observe the stuck value.
Any march test that reads each cell expecting both values (i.e. contains
an ``r0`` and an ``r1`` reaching every cell) detects all SAFs.
"""

from __future__ import annotations

from repro.faults.base import CellFault, with_bit


class StuckAtFault(CellFault):
    """Cell ``(word, bit)`` stuck at ``value``.

    Args:
        word: physical word index of the faulty cell.
        bit: bit position within the word (0 for bit-oriented memories).
        value: the stuck logic value, 0 or 1.
    """

    kind = "SAF"

    def __init__(self, word: int, bit: int, value: int) -> None:
        if value not in (0, 1):
            raise ValueError(f"stuck value must be 0 or 1, got {value!r}")
        self.word = word
        self.bit = bit
        self.value = value

    def install(self, memory) -> None:
        # The defect holds the node at the stuck level from power-on.
        memory.force_bit(self.word, self.bit, self.value)

    def on_write(self, memory, port: int, word: int, old: int, new: int) -> int:
        if word != self.word:
            return new
        return with_bit(new, self.bit, self.value)

    def on_read(self, memory, port: int, word: int, value: int) -> int:
        if word != self.word:
            return value
        return with_bit(value, self.bit, self.value)

    def describe(self) -> str:
        return f"SAF: cell ({self.word},{self.bit}) stuck-at-{self.value}"
