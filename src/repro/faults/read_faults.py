"""Static read faults: IRF, RDF and DRDF.

The fault-model generation that followed the paper (Adams & Cooley 1996,
van de Goor & Al-Ars 2000) added faults sensitised by the read operation
itself:

* **IRF** — incorrect read fault: reading the cell in state ``v``
  returns the complement while the cell keeps its value;
* **RDF** — read destructive fault: the read flips the cell *and*
  returns the flipped (wrong) value;
* **DRDF** — deceptive read destructive fault: the read flips the cell
  but returns the *correct* old value — the read that lies.

IRF and RDF are caught by any read expecting the sensitising state.
DRDF is the interesting one: only a **second read** (with no intervening
write) observes the damage, which gives the paper's triple-read '++'
variants a second justification beyond stuck-open cells, and is exactly
what the March SS / March RAW generation of algorithms was designed for.
"""

from __future__ import annotations

from repro.faults.base import CellFault, bit_of, with_bit


class _ReadSensitised(CellFault):
    """Shared base: fires when the cell is read holding ``state``."""

    def __init__(self, word: int, bit: int, state: int) -> None:
        if state not in (0, 1):
            raise ValueError(f"sensitising state must be 0 or 1, got {state!r}")
        self.word = word
        self.bit = bit
        self.state = state

    def _fires(self, word: int, value: int) -> bool:
        return word == self.word and bit_of(value, self.bit) == self.state


class IncorrectReadFault(_ReadSensitised):
    """IRF: reads of state ``state`` return the complement; the cell is
    untouched."""

    kind = "IRF"

    def on_read(self, memory, port: int, word: int, value: int) -> int:
        if self._fires(word, value):
            return with_bit(value, self.bit, self.state ^ 1)
        return value

    def describe(self) -> str:
        return (
            f"IRF: cell ({self.word},{self.bit}) reads {self.state ^ 1} "
            f"while holding {self.state}"
        )


class ReadDestructiveFault(_ReadSensitised):
    """RDF: reads of state ``state`` flip the cell and return the
    flipped value."""

    kind = "RDF"

    def on_read(self, memory, port: int, word: int, value: int) -> int:
        if self._fires(word, value):
            memory.force_bit(self.word, self.bit, self.state ^ 1)
            return with_bit(value, self.bit, self.state ^ 1)
        return value

    def describe(self) -> str:
        return (
            f"RDF: reading cell ({self.word},{self.bit}) in state "
            f"{self.state} flips it (and returns the flipped value)"
        )


class DeceptiveReadDestructiveFault(_ReadSensitised):
    """DRDF: reads of state ``state`` flip the cell but return the
    correct old value — only a follow-up read sees the damage."""

    kind = "DRDF"

    def on_read(self, memory, port: int, word: int, value: int) -> int:
        if self._fires(word, value):
            memory.force_bit(self.word, self.bit, self.state ^ 1)
            # The sense amplifier already latched the pre-flip value.
        return value

    def describe(self) -> str:
        return (
            f"DRDF: reading cell ({self.word},{self.bit}) in state "
            f"{self.state} flips it but returns {self.state}"
        )


def read_fault_universe(n_words: int, width: int = 1):
    """All IRF/RDF/DRDF instances (2 states × 3 kinds per cell)."""
    faults = []
    for word in range(n_words):
        for bit in range(width):
            for state in (0, 1):
                faults.append(IncorrectReadFault(word, bit, state))
                faults.append(ReadDestructiveFault(word, bit, state))
                faults.append(DeceptiveReadDestructiveFault(word, bit, state))
    return faults
