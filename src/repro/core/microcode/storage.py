"""The microcode storage unit (the Z×Y buffer of Fig. 1).

The storage unit holds the microcode program.  Two properties matter to
the paper's evaluation:

* it is written only at test setup (through the scan path) and read at
  one row per instruction — it never shifts at functional speed, so it
  can be built from IBM's *scan-only* cells, 4–5× smaller than full scan
  flip-flops (Table 3's "adjusted" controller);
* a 2-bit *Initialize* input selects between retaining contents, loading
  the hard default program, or accepting a custom scan-load.

The model keeps both views: decoded instructions for execution and the
encoded bit matrix with a behavioural scan chain (``scan_load`` /
``scan_dump``), which the test suite uses to show program load/readback
works bit-exactly.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from repro.area.components import Decoder, Mux, Register
from repro.core.microcode.instruction import MicroInstruction
from repro.core.microcode.isa import INSTRUCTION_BITS

#: Default storage depth, sized for the paper's Table 1/2 workload —
#: "test algorithms ... with the number of operations comparable to
#: March C and March A", including the retention ('+') variants: the
#: largest REPEAT-compressed program of that class is March A+ at 17
#: rows (word-oriented multiport tail included).  The '++' triple-read
#: variants need up to 27 rows; the controller auto-grows its storage
#: when constructed with such a program (see
#: :class:`repro.core.microcode.controller.MicrocodeBistController`),
#: and the storage-depth ablation benchmark sweeps this parameter.
DEFAULT_ROWS = 20


class StorageUnit:
    """Z-row, 10-bit-wide microcode store with a behavioural scan chain.

    Args:
        rows: storage depth Z.
        cell: storage cell kind for the area model ('scan_dff' for the
            Table 1/2 configuration, 'scan_only' for the Table 3
            redesign).
        default_program: instructions loaded by :meth:`initialize_default`
            (the paper's hard-wired default microcodes).
    """

    def __init__(
        self,
        rows: int = DEFAULT_ROWS,
        cell: str = "scan_dff",
        default_program: Optional[Sequence[MicroInstruction]] = None,
    ) -> None:
        if rows <= 1:
            raise ValueError(f"storage needs at least two rows, got {rows}")
        self.rows = rows
        self.cell = cell
        self.default_program: List[MicroInstruction] = list(default_program or [])
        if len(self.default_program) > rows:
            raise ValueError(
                f"default program ({len(self.default_program)} rows) exceeds "
                f"storage depth {rows}"
            )
        self._words: List[int] = [0] * rows
        # Manufacturing defects in the storage cells themselves:
        # (row, bit) -> stuck value.  Applied on every cell update, which
        # is how the scan self-test (repro.core.microcode.selftest)
        # observes them.
        self._stuck_bits: dict = {}

    #: Scan-clock divider of scan-only cells: the paper notes IBM's
    #: scan-only storage cells "operate in about 1/8 or 1/6 of
    #: functional clock rate" — program loads shift at that slow clock.
    SCAN_CLOCK_DIVIDER = 6

    @property
    def width(self) -> int:
        return INSTRUCTION_BITS

    def scan_load_cycles(self) -> int:
        """Functional-clock cycles to shift a full program image in.

        One scan-clock tick per chain bit; scan-only cells tick at
        ``1/SCAN_CLOCK_DIVIDER`` of the functional clock, full-scan
        cells at functional rate.  This is the reprogramming latency the
        SoC study charges per algorithm reload — and it is negligible
        against the test's memory operations, which is why the paper's
        "slower, smaller" scan-only trade-off is free in practice.
        """
        divider = self.SCAN_CLOCK_DIVIDER if self.cell == "scan_only" else 1
        return self.rows * self.width * divider

    def _apply_defects(self, row: int, word: int) -> int:
        for (defect_row, bit), value in self._stuck_bits.items():
            if defect_row == row:
                if value:
                    word |= 1 << bit
                else:
                    word &= ~(1 << bit)
        return word

    def inject_storage_defect(self, row: int, bit: int, value: int) -> None:
        """Force one storage cell stuck at ``value`` (test machinery)."""
        if not 0 <= row < self.rows or not 0 <= bit < self.width:
            raise IndexError(f"storage cell ({row},{bit}) out of range")
        if value not in (0, 1):
            raise ValueError(f"stuck value must be 0 or 1, got {value!r}")
        self._stuck_bits[(row, bit)] = value
        self._words[row] = self._apply_defects(row, self._words[row])

    def clear_storage_defects(self) -> None:
        self._stuck_bits.clear()

    def load(self, program: Sequence[MicroInstruction]) -> None:
        """Load a program into rows 0..len-1; remaining rows cleared."""
        if len(program) > self.rows:
            raise ValueError(
                f"program ({len(program)} instructions) exceeds storage depth "
                f"{self.rows}"
            )
        self._words = [instr.encode() for instr in program]
        self._words.extend([0] * (self.rows - len(program)))
        self._words = [
            self._apply_defects(row, word) for row, word in enumerate(self._words)
        ]

    def initialize_default(self) -> None:
        """The *Initialize* input's default-microcode load."""
        self.load(self.default_program)

    def fetch(self, row: int) -> MicroInstruction:
        """Instruction-selector read of one row."""
        if not 0 <= row < self.rows:
            raise IndexError(f"row {row} out of range 0..{self.rows - 1}")
        return MicroInstruction.decode(self._words[row])

    def word(self, row: int) -> int:
        return self._words[row]

    # -- behavioural scan chain ------------------------------------------

    def scan_load(self, bits: Iterable[int], validate: bool = True) -> None:
        """Shift a full bitstream in through the scan path.

        The chain is row-major, LSB first: exactly ``rows × 10`` bits.

        Args:
            bits: the bitstream.
            validate: decode-check every word so a bad program fails at
                load time rather than mid-test.  The scan *self-test*
                passes ``False`` — raw test patterns (checkerboards) are
                not valid instructions and never execute.
        """
        stream = list(bits)
        expected = self.rows * self.width
        if len(stream) != expected:
            raise ValueError(
                f"scan stream must be {expected} bits, got {len(stream)}"
            )
        for row in range(self.rows):
            word = 0
            for bit in range(self.width):
                word |= (stream[row * self.width + bit] & 1) << bit
            if validate:
                MicroInstruction.decode(word)
            self._words[row] = self._apply_defects(row, word)

    def scan_dump(self) -> List[int]:
        """Shift the full contents out (row-major, LSB first)."""
        stream: List[int] = []
        for word in self._words:
            for bit in range(self.width):
                stream.append((word >> bit) & 1)
        return stream

    # -- area model --------------------------------------------------------

    def hardware(self) -> List:
        """Storage array + row decode + instruction selector."""
        return [
            Register("controller/storage unit", self.width, rows=self.rows,
                     cell=self.cell),
            Decoder("controller/storage row decode", self.rows),
            Mux("controller/instruction selector", self.rows, self.width),
        ]
