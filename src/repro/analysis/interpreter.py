"""Abstract interpretation of microcode programs.

Proves termination and computes the **exact** cycle count of a program
without running the simulator.  The concrete controller state is

    (IC, branch register, repeat bit, reference register,
     address generator, data generator, port sequencer)

and a full run costs one cycle per executed instruction — O(N) cycles
per march element for an N-word memory.  The abstract interpreter
collapses the only N-dependent part, the per-address element sweep:

* the address generator is abstracted away entirely — a ``LOOP`` row at
  index *i* with branch register *b* executes the rows ``b..i`` once per
  address, so it contributes ``(i - b + 1) × N`` cycles in one step;
* the reference register's complement bits never influence control flow
  or cycle count, so only the repeat *bit* is kept;
* the data and port generators reduce to their counter values, bounded
  by the capability-derived background count and port count.

What remains is a finite deterministic transition system over

    (IC, branch, repeat bit, background index, port index)

with at most ``Z × (Z+1) × 2 × B × P`` states.  Executing it step by
step therefore *decides* termination: reaching EXIT proves the program
halts (with an exact cycle total), revisiting a state proves it never
does.  Programs whose element bodies are not straight-line ``NOP`` runs
(the only shape the collapsed sweep formula covers — and the only shape
the assembler emits) are reported as UNKNOWN rather than guessed at.

The collapse is exact because the simulator's trace semantics make each
sweep cost precisely ``span × N``: the walker already counted the body
rows once (the first address iteration), so the ``LOOP`` step adds
``span × (N-1) + 1``.  The walk lives in
:func:`repro.core.walk.walk_microcode`, which also reads the program's
op summary off the same steps; this module reports its termination half.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

from repro.core.controller import ControllerCapabilities
from repro.core.microcode.assembler import MicrocodeProgram
from repro.core.microcode.instruction import MicroInstruction
from repro.core.walk import MAX_STEPS, Verdict, walk_microcode  # noqa: F401


@dataclass(frozen=True)
class Interpretation:
    """Result of :func:`interpret`.

    Attributes:
        verdict: termination verdict.
        cycles: exact executed-instruction count (TERMINATES only).
        reason: explanation for DIVERGES / UNKNOWN verdicts.
        location: instruction index the reason points at, if any.
        states_visited: size of the explored abstract state space.
    """

    verdict: Verdict
    cycles: Optional[int] = None
    reason: str = ""
    location: Optional[int] = None
    states_visited: int = 0

    @property
    def terminates(self) -> Optional[bool]:
        if self.verdict is Verdict.TERMINATES:
            return True
        if self.verdict is Verdict.DIVERGES:
            return False
        return None

    @classmethod
    def of(cls, walk) -> "Interpretation":
        """The termination half of a :class:`~repro.core.walk.Walk`."""
        return cls(
            walk.verdict, cycles=walk.cycles, reason=walk.reason,
            location=walk.location, states_visited=walk.states_visited,
        )


def interpret(
    program: Union[MicrocodeProgram, Sequence[MicroInstruction]],
    capabilities: ControllerCapabilities,
    storage_rows: Optional[int] = None,
) -> Interpretation:
    """Abstractly execute ``program`` against a memory geometry.

    The walk itself is :func:`repro.core.walk.walk_microcode`, which
    also yields the program's op summary for the vector sweep.

    Args:
        program: the microcode program (or raw instruction list).
        capabilities: geometry the controller targets; supplies the
            address-space size, background count and port count.
        storage_rows: storage depth Z.  The controller's walker ends a
            test when the IC passes the last *program* row (padding rows
            never execute), so Z only matters when it is smaller than
            the program — the faithful model of an overflowing load.

    Returns:
        An :class:`Interpretation`; when the verdict is ``TERMINATES``
        the ``cycles`` field equals the simulator's executed-instruction
        count exactly (the test suite checks this identity property).
    """
    if isinstance(program, MicrocodeProgram):
        instructions: Tuple[MicroInstruction, ...] = tuple(program.instructions)
    else:
        instructions = tuple(program)
    limit = len(instructions)
    if storage_rows is not None:
        limit = min(limit, storage_rows)
    return Interpretation.of(walk_microcode(instructions, capabilities, limit))


def cycle_bound(
    program: Union[MicrocodeProgram, Sequence[MicroInstruction]],
    capabilities: ControllerCapabilities,
    storage_rows: Optional[int] = None,
) -> Optional[int]:
    """Exact cycle count when provable, else ``None``."""
    return interpret(program, capabilities, storage_rows=storage_rows).cycles
