"""Control-flow graph and abstract interpreter for upper-buffer programs.

The programmable FSM architecture's second half of the verification
story: where :mod:`repro.analysis.cfg` models the microcode decoder,
this module models the upper controller of Fig. 4(b) — a circular
buffer whose row pointer advances on the lower FSM's *Next Instruction*
signal and whose two loop rows implement the background (path A) and
port (path B) loops.

Row semantics, following
:meth:`repro.core.progfsm.controller.ProgrammableFsmBistController.trace`:

=============  ==========================================================
element row    run one march element (lower FSM walk), then advance the
               pointer; advancing past the last used row ends the test.
``LOOP_BG``    two-way: wrap to row 0 while data backgrounds remain
               (path A); on *Last Data* reset the background generator
               and advance — past the last row, the test ends.
``LOOP_PORT``  two-way: activate the next port, reset the background
               generator and wrap to row 0 (path B); on *Last Port* the
               test ends.
=============  ==========================================================

The abstract interpreter collapses the only N-dependent part — the
lower FSM's per-address element walk.  An element row whose SM pattern
has L operations costs exactly ``hold + 3 + N x L`` trace cycles: one
optional pause cycle, the IDLE and RESET steps, L operation cycles per
address, and the DONE step.  What remains is a finite deterministic
transition system over ``(row pointer, background, port)`` with at most
``rows x B x P`` states, so stepping it *decides* termination — exactly
as the microcode interpreter does over ``(IC, branch, repeat,
background, port)``.

Two asymmetries against the microcode trace semantics, both faithful to
the controller model: a *Last Data* ``LOOP_BG`` that advances past the
program end returns **without** emitting a trace entry (0 cycles), while
a *Last Port* ``LOOP_PORT`` emits its entry first (1 cycle).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.analysis.interpreter import Interpretation
from repro.core.controller import ControllerCapabilities
from repro.core.progfsm.compiler import FsmProgram
from repro.core.progfsm.instruction import DataControl, FsmInstruction
from repro.core.walk import MAX_STEPS, walk_fsm

#: The virtual exit node (shared convention with the microcode CFG).
EXIT = None


class FsmEdgeKind(enum.Enum):
    """Why control may flow along an upper-buffer edge."""

    ADVANCE = "advance"       # Next Instruction: pointer steps one row
    PATH_A = "path-a"         # LOOP_BG wrap while backgrounds remain
    PATH_B = "path-b"         # LOOP_PORT wrap while ports remain
    LAST_DATA = "last-data"   # LOOP_BG falls through on Last Data
    END = "end"               # test end (Last Port / buffer wrap)


@dataclass(frozen=True)
class FsmEdge:
    """One control-flow edge ``src -> dst`` (``dst is None`` = EXIT)."""

    src: int
    dst: Optional[int]
    kind: FsmEdgeKind

    def __str__(self) -> str:
        dst = "EXIT" if self.dst is EXIT else str(self.dst)
        return f"{self.src} -> {dst} [{self.kind.value}]"


def _instructions(
    program: Union[FsmProgram, Sequence[FsmInstruction]],
) -> Tuple[FsmInstruction, ...]:
    if isinstance(program, FsmProgram):
        return tuple(program.instructions)
    return tuple(program)


@dataclass(frozen=True)
class FsmControlFlowGraph:
    """CFG of one upper-buffer program.

    Attributes:
        instructions: the buffer rows the graph covers.
        edges: all edges, in row order.
    """

    instructions: Tuple[FsmInstruction, ...]
    edges: Tuple[FsmEdge, ...]

    def successors(self, index: int) -> List[FsmEdge]:
        return [edge for edge in self.edges if edge.src == index]

    def predecessors(self, index: Optional[int]) -> List[FsmEdge]:
        return [edge for edge in self.edges if edge.dst == index]

    def reachable(self) -> Set[int]:
        """Row indices reachable from the entry (row 0)."""
        if not self.instructions:
            return set()
        seen: Set[int] = set()
        frontier = [0]
        by_src: Dict[int, List[FsmEdge]] = {}
        for edge in self.edges:
            by_src.setdefault(edge.src, []).append(edge)
        while frontier:
            node = frontier.pop()
            if node in seen:
                continue
            seen.add(node)
            for edge in by_src.get(node, ()):
                if edge.dst is not EXIT and edge.dst not in seen:
                    frontier.append(edge.dst)
        return seen

    def unreachable(self) -> List[int]:
        reachable = self.reachable()
        return [i for i in range(len(self.instructions)) if i not in reachable]

    def terminating_edges(self) -> List[FsmEdge]:
        """All edges into EXIT."""
        return self.predecessors(EXIT)


def build_fsm_cfg(
    program: Union[FsmProgram, Sequence[FsmInstruction]],
) -> FsmControlFlowGraph:
    """Build the control-flow graph of an upper-buffer program."""
    instructions = _instructions(program)
    n = len(instructions)
    edges: List[FsmEdge] = []

    def advance(index: int, kind: FsmEdgeKind) -> FsmEdge:
        if index + 1 < n:
            return FsmEdge(index, index + 1, kind)
        return FsmEdge(index, EXIT, FsmEdgeKind.END)

    for index, instr in enumerate(instructions):
        if instr.is_element:
            edges.append(advance(index, FsmEdgeKind.ADVANCE))
        elif instr.data_ctrl is DataControl.LOOP_BG:
            edges.append(FsmEdge(index, 0, FsmEdgeKind.PATH_A))
            edges.append(advance(index, FsmEdgeKind.LAST_DATA))
        else:  # LOOP_PORT
            edges.append(FsmEdge(index, 0, FsmEdgeKind.PATH_B))
            edges.append(FsmEdge(index, EXIT, FsmEdgeKind.END))
    return FsmControlFlowGraph(instructions=instructions, edges=tuple(edges))


def interpret_fsm(
    program: Union[FsmProgram, Sequence[FsmInstruction]],
    capabilities: ControllerCapabilities,
    max_steps: int = MAX_STEPS,
) -> Interpretation:
    """Abstractly execute an upper-buffer program against a geometry.

    The walk itself is :func:`repro.core.walk.walk_fsm`, which also
    yields the program's op summary for the vector sweep.

    Args:
        program: compiled :class:`FsmProgram` or raw instruction rows.
        capabilities: geometry the controller targets; supplies the
            address-space size, background count and port count.
        max_steps: abstract-step safety valve (the ``rows x B x P``
            state space bounds the walk anyway).

    Returns:
        An :class:`~repro.analysis.interpreter.Interpretation`; when the
        verdict is ``TERMINATES`` the ``cycles`` field equals the
        controller's trace length exactly (the test suite checks this
        identity, and ``repro fuzz`` re-checks it at corpus scale).
    """
    return Interpretation.of(
        walk_fsm(_instructions(program), capabilities, max_steps=max_steps)
    )

