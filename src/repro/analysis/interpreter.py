"""Abstract interpretation of both programmable controllers' programs.

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
op summary off the same steps.

The upper-buffer interpreter collapses the same N-dependent part — the
lower FSM's per-address element walk.  An element row whose SM pattern
has L operations costs exactly ``hold + 3 + N x L`` trace cycles: one
optional pause cycle, the IDLE and RESET steps, L operation cycles per
address, and the DONE step.  What remains is a finite deterministic
transition system over ``(row pointer, background, port)`` with at most
``rows x B x P`` states, walked by :func:`repro.core.walk.walk_fsm`.

Two asymmetries against the microcode trace semantics, both faithful to
the controller model: a *Last Data* ``LOOP_BG`` that advances past the
program end returns **without** emitting a trace entry (0 cycles), while
a *Last Port* ``LOOP_PORT`` emits its entry first (1 cycle).

Both interpreters return the :class:`~repro.core.walk.Walk` itself:
verdict, exact cycle count, reason, location and explored state count,
plus the op summary the vector sweep reads.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from repro.analysis.cfg import program_rows
from repro.core.controller import ControllerCapabilities
from repro.core.microcode.assembler import MicrocodeProgram
from repro.core.microcode.instruction import MicroInstruction
from repro.core.progfsm.compiler import FsmProgram
from repro.core.progfsm.instruction import FsmInstruction
from repro.core.walk import MAX_STEPS, Walk, walk_fsm, walk_microcode


def interpret(
    program: Union[MicrocodeProgram, Sequence[MicroInstruction]],
    capabilities: ControllerCapabilities,
    storage_rows: Optional[int] = None,
) -> Walk:
    """Abstractly execute a microcode program against a memory geometry.

    Args:
        program: the microcode program (or raw instruction list).
        capabilities: geometry the controller targets; supplies the
            address-space size, background count and port count.
        storage_rows: storage depth Z.  The controller's walker ends a
            test when the IC passes the last *program* row (padding rows
            never execute), so Z only matters when it is smaller than
            the program — the faithful model of an overflowing load.

    Returns:
        The :class:`~repro.core.walk.Walk`; when the verdict is
        ``TERMINATES`` its ``cycles`` equal the simulator's
        executed-instruction count exactly (the test suite checks this
        identity property).
    """
    instructions = program_rows(program)
    limit = len(instructions)
    if storage_rows is not None:
        limit = min(limit, storage_rows)
    return walk_microcode(instructions, capabilities, limit)


def interpret_fsm(
    program: Union[FsmProgram, Sequence[FsmInstruction]],
    capabilities: ControllerCapabilities,
    max_steps: int = MAX_STEPS,
) -> Walk:
    """Abstractly execute an upper-buffer program against a geometry.

    Args:
        program: compiled :class:`FsmProgram` or raw instruction rows.
        capabilities: geometry the controller targets; supplies the
            address-space size, background count and port count.
        max_steps: abstract-step safety valve (the ``rows x B x P``
            state space bounds the walk anyway).

    Returns:
        The :class:`~repro.core.walk.Walk`; when the verdict is
        ``TERMINATES`` its ``cycles`` equal the controller's trace
        length exactly (the test suite checks this identity, and
        ``repro fuzz`` re-checks it at corpus scale).  A compiled
        program's pauses carry its ``pause_duration`` in the op
        summary; raw rows pause for 0.
    """
    pause = program.pause_duration if isinstance(program, FsmProgram) else 0
    return walk_fsm(
        program_rows(program), capabilities, pause, max_steps=max_steps
    )
