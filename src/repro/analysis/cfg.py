"""Control-flow graphs over both programmable controllers' programs.

Nodes are program rows — microcode instructions or upper-buffer rows;
one virtual EXIT node (``None``) models test end.  The graph, its
edges and its queries are row-agnostic; :func:`build_cfg` and
:func:`build_fsm_cfg` derive the edges from each controller's
semantics.

Microcode edges follow the decoder semantics of
:func:`repro.core.microcode.controller.decoder_outputs`:

=============  ============================================================
``NOP``        fall through to ``i+1``.
``SAVE``       fall through (the branch-register side effect is not a
               control transfer).
``LOOP``       two-way: back edge to the element start (the branch
               register's value, resolved statically — see
               :func:`loop_target`) while addresses remain, fall through
               on *Last Address*.
``REPEAT``     two-way: "Reset to 1" edge to instruction 1 on first
               execution, fall through on the second.
``NEXT_BG``    two-way: "Reset to 0" edge to instruction 0 while data
               backgrounds remain, fall through on *Last Data*.
``HOLD``       fall through once the pause timer expires.
``INC_PORT``   two-way: "Reset to 0" edge while ports remain, EXIT on
               *Last Port*.
``TERMINATE``  EXIT.
=============  ============================================================

Falling off the last instruction is modelled as an edge to EXIT: the
controller ends a test "by exhausting the allowed instruction addresses"
(the walker stops once the IC passes the last program row).

The branch register is runtime state, but in straight-line programs its
value at a ``LOOP`` is statically determined: every control-transfer
instruction re-seeds it with its own successor, so the loop target is
one past the nearest preceding non-``NOP`` instruction (or 0 at the
program head — the power-on branch-register value).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.core.microcode.isa import ConditionOp
from repro.core.progfsm.instruction import DataControl

if TYPE_CHECKING:
    from repro.core.microcode.assembler import MicrocodeProgram
    from repro.core.microcode.instruction import MicroInstruction
    from repro.core.progfsm.compiler import FsmProgram
    from repro.core.progfsm.instruction import FsmInstruction

#: The virtual exit node.
EXIT = None


class EdgeKind(enum.Enum):
    """Why control may flow along an edge."""

    # microcode
    FALLTHROUGH = "fallthrough"   # sequential IC increment
    LOOP_BACK = "loop-back"       # LOOP -> branch register (element sweep)
    RESET1 = "reset-1"            # REPEAT first execution -> instruction 1
    RESET0 = "reset-0"            # NEXT_BG / INC_PORT -> instruction 0
    # upper buffer
    ADVANCE = "advance"           # Next Instruction: pointer steps one row
    PATH_A = "path-a"             # LOOP_BG wrap while backgrounds remain
    PATH_B = "path-b"             # LOOP_PORT wrap while ports remain
    LAST_DATA = "last-data"       # LOOP_BG falls through on Last Data
    # both
    END = "end"                   # test end (terminator / row exhaustion)


@dataclass(frozen=True)
class Edge:
    """One control-flow edge ``src -> dst`` (``dst is None`` = EXIT)."""

    src: int
    dst: Optional[int]
    kind: EdgeKind

    def __str__(self) -> str:
        dst = "EXIT" if self.dst is EXIT else str(self.dst)
        return f"{self.src} -> {dst} [{self.kind.value}]"


def program_rows(program) -> Tuple:
    """The rows of a program, or of a raw row sequence."""
    return tuple(getattr(program, "instructions", program))


def loop_target(instructions: Sequence[MicroInstruction], index: int) -> int:
    """Statically resolved branch-register value at a ``LOOP`` row.

    Scans backwards over the ``NOP`` rows forming the element body; the
    first non-``NOP`` row re-seeded the branch register with its own
    successor.  At the program head the power-on value 0 applies.
    """
    scan = index - 1
    while scan >= 0 and instructions[scan].cond is ConditionOp.NOP:
        scan -= 1
    return scan + 1


@dataclass(frozen=True)
class ControlFlowGraph:
    """CFG of one program.

    Attributes:
        instructions: the program rows the graph covers.
        edges: all edges, in row order.
    """

    instructions: Tuple[Union[MicroInstruction, FsmInstruction], ...]
    edges: Tuple[Edge, ...]

    def successors(self, index: int) -> List[Edge]:
        return [edge for edge in self.edges if edge.src == index]

    def predecessors(self, index: Optional[int]) -> List[Edge]:
        return [edge for edge in self.edges if edge.dst == index]

    def reachable(self) -> Set[int]:
        """Row indices reachable from the entry (row 0)."""
        if not self.instructions:
            return set()
        seen: Set[int] = set()
        frontier = [0]
        by_src: Dict[int, List[Edge]] = {}
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

    def terminating_edges(self) -> List[Edge]:
        """All edges into EXIT."""
        return self.predecessors(EXIT)


def exits_explicitly(cfg: ControlFlowGraph) -> bool:
    """Whether a reachable TERMINATE / INC_PORT row of a microcode
    graph ends the test (as opposed to running off the end of the
    storage)."""
    reachable = cfg.reachable()
    return any(
        edge.src in reachable
        and cfg.instructions[edge.src].cond
        in (ConditionOp.TERMINATE, ConditionOp.INC_PORT)
        for edge in cfg.terminating_edges()
    )


def _step(index: int, n: int, kind: EdgeKind) -> Edge:
    """The edge to the next row, or to EXIT past the last one."""
    if index + 1 < n:
        return Edge(index, index + 1, kind)
    return Edge(index, EXIT, EdgeKind.END)


def build_cfg(
    program: Union[MicrocodeProgram, Sequence[MicroInstruction]],
) -> ControlFlowGraph:
    """Build the control-flow graph of a microcode program."""
    instructions = program_rows(program)
    n = len(instructions)
    edges: List[Edge] = []
    for index, instr in enumerate(instructions):
        cond = instr.cond
        fall = _step(index, n, EdgeKind.FALLTHROUGH)
        if cond in (ConditionOp.NOP, ConditionOp.SAVE, ConditionOp.HOLD):
            edges.append(fall)
        elif cond is ConditionOp.LOOP:
            edges.append(
                Edge(index, loop_target(instructions, index), EdgeKind.LOOP_BACK)
            )
            edges.append(fall)
        elif cond is ConditionOp.REPEAT:
            if n > 1:
                edges.append(Edge(index, 1, EdgeKind.RESET1))
            edges.append(fall)
        elif cond is ConditionOp.NEXT_BG:
            edges.append(Edge(index, 0, EdgeKind.RESET0))
            edges.append(fall)
        elif cond is ConditionOp.INC_PORT:
            edges.append(Edge(index, 0, EdgeKind.RESET0))
            edges.append(Edge(index, EXIT, EdgeKind.END))
        elif cond is ConditionOp.TERMINATE:
            edges.append(Edge(index, EXIT, EdgeKind.END))
    return ControlFlowGraph(instructions=instructions, edges=tuple(edges))


def build_fsm_cfg(
    program: Union[FsmProgram, Sequence[FsmInstruction]],
) -> ControlFlowGraph:
    """Build the control-flow graph of an upper-buffer program.

    The programmable FSM's upper controller (Fig. 4(b)) is a circular
    buffer whose row pointer advances on the lower FSM's *Next
    Instruction* signal and whose two loop rows implement the
    background (path A) and port (path B) loops.  Row semantics follow
    :meth:`repro.core.progfsm.controller.ProgrammableFsmBistController.trace`:

    =============  ======================================================
    element row    run one march element (lower FSM walk), then advance
                   the pointer; advancing past the last used row ends
                   the test.
    ``LOOP_BG``    two-way: wrap to row 0 while data backgrounds remain
                   (path A); on *Last Data* reset the background
                   generator and advance — past the last row, the test
                   ends.
    ``LOOP_PORT``  two-way: activate the next port, reset the background
                   generator and wrap to row 0 (path B); on *Last Port*
                   the test ends.
    =============  ======================================================
    """
    instructions = program_rows(program)
    n = len(instructions)
    edges: List[Edge] = []
    for index, instr in enumerate(instructions):
        if instr.is_element:
            edges.append(_step(index, n, EdgeKind.ADVANCE))
        elif instr.data_ctrl is DataControl.LOOP_BG:
            edges.append(Edge(index, 0, EdgeKind.PATH_A))
            edges.append(_step(index, n, EdgeKind.LAST_DATA))
        else:  # LOOP_PORT
            edges.append(Edge(index, 0, EdgeKind.PATH_B))
            edges.append(Edge(index, EXIT, EdgeKind.END))
    return ControlFlowGraph(instructions=instructions, edges=tuple(edges))
