"""Data-retention faults (DRF).

A retention-defective cell (e.g. a broken load resistor in a 4T SRAM
cell) holds one of its logic values only for a limited *decay time*; left
idle longer than that, the value leaks away.  The paper's March C+ /
March A+ variants add ``Hold`` pauses followed by verification sweeps
precisely to expose these defects — no pause-free march test can.

Model: during an idle period (:meth:`on_elapse`) the cell accumulates
decay while it stores ``from_value``; once the accumulated idle time
reaches ``decay_time`` the cell flips.  Reads and writes between pauses
refresh the node, clearing the accumulation (per-access time advance of
1 unit is negligible against the default 500-unit decay time).
"""

from __future__ import annotations

from repro.faults.base import CellFault, bit_of

#: Default decay time; the library's retention pauses (1000 units, see
#: :data:`repro.march.library.RETENTION_PAUSE`) comfortably exceed it.
DEFAULT_DECAY_TIME = 500


class DataRetentionFault(CellFault):
    """Cell ``(word, bit)`` loses ``from_value`` after ``decay_time`` idle.

    Args:
        word: physical word of the leaky cell.
        bit: bit position within the word.
        from_value: the value that decays (1: leaks down; 0: leaks up).
        decay_time: idle units after which the value is lost.
    """

    kind = "DRF"

    def __init__(
        self, word: int, bit: int, from_value: int, decay_time: int = DEFAULT_DECAY_TIME
    ) -> None:
        if from_value not in (0, 1):
            raise ValueError(f"from_value must be 0 or 1, got {from_value!r}")
        if decay_time <= 0:
            raise ValueError("decay time must be positive")
        self.word = word
        self.bit = bit
        self.from_value = from_value
        self.decay_time = decay_time
        self._idle = 0

    def reset(self) -> None:
        self._idle = 0

    def on_write(self, memory, port: int, word: int, old: int, new: int) -> int:
        if word == self.word:
            self._idle = 0  # access refreshes the node
        return new

    def on_read(self, memory, port: int, word: int, value: int) -> int:
        if word == self.word:
            self._idle = 0
        return value

    def on_elapse(self, memory, duration: int) -> None:
        if bit_of(memory.peek(self.word), self.bit) != self.from_value:
            self._idle = 0
            return
        self._idle += duration
        if self._idle >= self.decay_time:
            memory.force_bit(self.word, self.bit, self.from_value ^ 1)
            self._idle = 0

    def describe(self) -> str:
        return (
            f"DRF: cell ({self.word},{self.bit}) loses {self.from_value} after "
            f"{self.decay_time} idle units"
        )
