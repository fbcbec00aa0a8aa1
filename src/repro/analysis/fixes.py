"""Mechanical autofixes for microcode lint findings (``repro lint --fix``).

Applies the fix *hints* of the mechanical rules, in an order where each
fix cannot re-introduce an earlier finding:

1. ``MC012`` — a symmetric source algorithm stored uncompressed is
   re-assembled with REPEAT compression (via the existing
   :func:`repro.march.properties.symmetric_split` discovery);
2. ``MC002`` — unreachable rows are dropped.  In decoder-legal programs
   dead rows are always a suffix behind the first reachable
   ``TERMINATE``/``INC_PORT`` (every other condition falls through), so
   dropping them never moves a loop target;
3. ``MC001`` — a program with no reachable terminator gets a
   ``TERMINATE`` row appended, making the fall-off termination explicit.

Anything the fixer cannot decide mechanically (divergence, capability
mismatches, bad pause shapes) is left for the report — ``--fix`` never
guesses at test *content*.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.analysis.cfg import build_cfg, exits_explicitly
from repro.core.controller import ControllerCapabilities
from repro.core.microcode.assembler import MicrocodeProgram, assemble
from repro.core.microcode.instruction import MicroInstruction
from repro.core.microcode.isa import ConditionOp


@dataclass
class FixResult:
    """Outcome of :func:`apply_fixes`.

    Attributes:
        program: the fixed program (a new object; the input is never
            mutated).  Identical to the input when nothing applied.
        applied: human-readable description of each applied fix, in
            application order.
    """

    program: MicrocodeProgram
    applied: List[str] = field(default_factory=list)

    @property
    def changed(self) -> bool:
        return bool(self.applied)


def _recompress(
    program: MicrocodeProgram,
    capabilities: Optional[ControllerCapabilities],
    applied: List[str],
) -> MicrocodeProgram:
    """MC012: re-assemble a symmetric, uncompressed program."""
    if capabilities is None or program.source is None:
        return program
    if any(
        row.cond is ConditionOp.REPEAT for row in program.instructions
    ):
        return program
    from repro.march.properties import symmetric_split

    split = symmetric_split(program.source, require_single_op_prefix=True)
    if split is None:
        return program
    compressed = assemble(
        program.source, capabilities, compress=True, verify=False
    )
    saved = len(program.instructions) - len(compressed.instructions)
    if saved <= 0:
        return program
    applied.append(
        f"MC012: re-compressed the symmetric second half ({split.aux} "
        f"complement) via REPEAT, saving {saved} storage rows"
    )
    return MicrocodeProgram(
        name=program.name,
        instructions=compressed.instructions,
        source=program.source,
        compressed=True,
        split=compressed.split,
    )


def _drop_dead_rows(
    program: MicrocodeProgram, applied: List[str]
) -> MicrocodeProgram:
    """MC002: remove rows the control-flow graph proves unreachable."""
    instructions = list(program.instructions)
    dropped: List[int] = []
    while instructions:
        unreachable = build_cfg(instructions).unreachable()
        if not unreachable:
            break
        # Drop from the back so earlier indices stay valid.
        for index in sorted(unreachable, reverse=True):
            dropped.append(index)
            del instructions[index]
    if not dropped:
        return program
    rows = ", ".join(str(i) for i in sorted(dropped))
    applied.append(f"MC002: dropped {len(dropped)} dead row(s) ({rows})")
    return MicrocodeProgram(
        name=program.name,
        instructions=instructions,
        source=program.source,
        compressed=program.compressed,
        split=program.split,
    )


def _append_terminator(
    program: MicrocodeProgram, applied: List[str]
) -> MicrocodeProgram:
    """MC001: make the fall-off termination explicit."""
    if not program.instructions or exits_explicitly(build_cfg(program)):
        return program
    instructions = list(program.instructions)
    instructions.append(MicroInstruction(cond=ConditionOp.TERMINATE))
    applied.append(
        f"MC001: appended a TERMINATE row at {len(instructions) - 1}"
    )
    return MicrocodeProgram(
        name=program.name,
        instructions=instructions,
        source=program.source,
        compressed=program.compressed,
        split=program.split,
    )


def apply_fixes(
    program: MicrocodeProgram,
    capabilities: Optional[ControllerCapabilities] = None,
) -> FixResult:
    """Apply every mechanical fix that fires on ``program``.

    Args:
        program: the program to fix (never mutated).
        capabilities: target geometry, required for the MC012
            re-compression (the re-assembled tail depends on it);
            ``None`` skips that fix.

    Returns:
        A :class:`FixResult` with the fixed program and a description
        of each applied fix.  Re-verify the result to see what remains.
    """
    applied: List[str] = []
    fixed = _recompress(program, capabilities, applied)
    fixed = _drop_dead_rows(fixed, applied)
    fixed = _append_terminator(fixed, applied)
    return FixResult(program=fixed, applied=applied)
