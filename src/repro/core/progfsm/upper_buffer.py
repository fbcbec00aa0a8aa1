"""The upper controller: a 2-dimensional circular instruction buffer.

The buffer holds one row per march element plus the loop rows; a row
pointer advances on the lower FSM's *Next Instruction* signal.  The two
execution paths of Fig. 4(b):

* **path A** — reaching the ``LOOP_BG`` row with *Last Data* de-asserted
  increments the data-background generator and wraps the pointer to row
  0, re-running the algorithm for the next background;
* **path B** — reaching the ``LOOP_PORT`` row with *Last Port*
  de-asserted activates the next port (and resets the background
  generator) before wrapping; with *Last Port* asserted the test ends.

Unlike the microcode storage unit, the buffer rows shift/select at
functional clock rate, so they must be full scan flip-flops — the
paper's reason the scan-only-cell optimisation of Table 3 does not apply
to this architecture.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

from repro.area.components import Component, Counter, Mux, Register
from repro.core.progfsm.instruction import FsmInstruction, INSTRUCTION_BITS

#: Default buffer depth: March C+ (8 element rows) + both loop rows,
#: with headroom for MATS/X/Y-class custom programs.
DEFAULT_ROWS = 12


class CircularBuffer:
    """Upper-controller instruction store with a wrap-around pointer.

    Args:
        rows: buffer depth.
        default_program: rows loaded by :meth:`initialize_default` (the
            *Initialize* input's default algorithm).
    """

    def __init__(
        self,
        rows: int = DEFAULT_ROWS,
        default_program: Optional[Sequence[FsmInstruction]] = None,
    ) -> None:
        if rows <= 0:
            raise ValueError(f"buffer needs at least one row, got {rows}")
        self.rows = rows
        self.default_program: List[FsmInstruction] = list(default_program or [])
        if len(self.default_program) > rows:
            raise ValueError(
                f"default program ({len(self.default_program)} rows) exceeds "
                f"buffer depth {rows}"
            )
        self._words: List[int] = [0] * rows
        self._used = len(self.default_program)
        self.pointer = 0
        self.initialize_default()

    @property
    def width(self) -> int:
        return INSTRUCTION_BITS

    @property
    def used_rows(self) -> int:
        """Rows occupied by the loaded program."""
        return self._used

    def load(self, program: Sequence[FsmInstruction]) -> None:
        if len(program) > self.rows:
            raise ValueError(
                f"program ({len(program)} rows) exceeds buffer depth {self.rows}"
            )
        self._words = [instr.encode() for instr in program]
        self._words.extend([0] * (self.rows - len(program)))
        self._used = len(program)
        self.pointer = 0

    def initialize_default(self) -> None:
        self.load(self.default_program)

    def word(self) -> int:
        """The stored word at the pointer."""
        return self._words[self.pointer]

    def current(self) -> FsmInstruction:
        return FsmInstruction.decode(self.word())

    def advance(self) -> None:
        """Next Instruction: step the pointer within the used region."""
        self.pointer += 1
        if self.pointer >= self._used:
            self.pointer = 0

    def wrap(self) -> None:
        """Loop back to row 0 (paths A and B)."""
        self.pointer = 0

    def reset(self) -> None:
        self.pointer = 0

    def hardware(self) -> List[Component]:
        pointer_bits = max(1, math.ceil(math.log2(self.rows)))
        return [
            # Functional-rate storage: full scan flip-flops, no
            # scan-only discount (see module docstring).
            Register("controller/circular buffer", self.width, rows=self.rows,
                     cell="scan_dff"),
            # The buffer rotates (shifts one row per march component), so
            # every bit needs a rotate-path feedback mux instead of a row
            # decoder/selector: the current instruction is always row 0.
            Mux("controller/buffer rotate path", 2, self.width * self.rows),
            Counter("controller/buffer pointer", pointer_bits, loadable=True),
        ]
