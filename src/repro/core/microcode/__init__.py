"""Microcode-based memory BIST architecture (paper Fig. 1/2).

The controller consists of:

1. **storage unit** — a Z×10-bit buffer of microcode instructions
   (:mod:`~repro.core.microcode.storage`), loadable via scan;
2. **instruction counter** — log2(Z)+1-bit counter selecting the current
   instruction (the extra bit is the *test end* flag);
3. **instruction selector** — Z×10:10 mux;
4. **branch register** — log2(Z)-bit register holding the element-loop
   target, auto-updated on every *Last Address* event (the paper's "Save
   Address Condition" mechanism);
5. **instruction decoder** — interprets the 3-bit condition field;
6. **reference register** — 4-bit register (repeat bit + auxiliary
   address-order/data/compare complements) enabling single-REPEAT
   encoding of symmetric algorithms such as March C and March A.

The ISA is defined in :mod:`~repro.core.microcode.isa`, the cycle-
accurate model in :mod:`~repro.core.microcode.controller`, and the march
→ microcode translator (with REPEAT compression) in
:mod:`~repro.core.microcode.assembler`.
"""

from repro._lazy import attach

__getattr__, __dir__ = attach(__name__, {
    "repro.core.microcode.isa": ["ConditionOp", "INSTRUCTION_BITS"],
    "repro.core.microcode.instruction": ["MicroInstruction"],
    "repro.core.microcode.storage": ["StorageUnit"],
    "repro.core.microcode.assembler": ["MicrocodeProgram", "assemble"],
    "repro.core.microcode.disassembler": ["disassemble"],
    "repro.core.microcode.controller": ["MicrocodeBistController"],
})

__all__ = [
    "ConditionOp",
    "INSTRUCTION_BITS",
    "MicroInstruction",
    "MicrocodeBistController",
    "MicrocodeProgram",
    "StorageUnit",
    "assemble",
    "disassemble",
]
