"""Normalised, provenance-attributed operation traces.

Every controller in :mod:`repro.core` and the golden expander in
:mod:`repro.march.simulator` emit the same
:class:`~repro.march.simulator.MemoryOperation` type; this module turns
each of those streams into a list of :class:`AttributedOp` — the
operation in canonical (normalised) form plus a human-readable *owner*
naming the program location that issued it:

* golden stream — the owning march item and operation index;
* microcode controller — the storage row and its disassembly;
* programmable FSM controller — the upper-buffer row and its decoded
  instruction;
* hardwired controller — the FSM state index and kind.

Normalisation rules (see ``docs/TESTING.md``):

* a write is ``("w", port, address, value)``;
* a read is ``("r", port, address, expected)``;
* a pause is ``("d", port, delay)`` — the placeholder address and the
  unused value/expected fields of delay operations are *not* compared;
* nothing else (cycle timing, controller state) participates: op-for-op
  equivalence is about the memory-facing behaviour only.  Temporal
  equivalence is the fuzz harness's separate assertion (a)/(b).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

from repro.core.controller import ControllerCapabilities
from repro.march.backgrounds import data_backgrounds
from repro.march.concurrent import CycleOps, expand_concurrent
from repro.march.element import MarchElement, Pause
from repro.march.simulator import MemoryOperation, expand
from repro.march.test import MarchTest

def stimulus_notation(test) -> str:
    """The stable string identity of any sweepable stimulus.

    March tests render through :func:`repro.march.notation.format_test`;
    non-march session objects (e.g. :class:`repro.prt.session.PrtSession`)
    carry their own ``notation`` attribute.  Used wherever reports and
    store keys need a stimulus name without assuming march structure.
    """
    if isinstance(test, MarchTest):
        from repro.march.notation import format_test

        return format_test(test)
    notation = getattr(test, "notation", None)
    if notation is not None:
        return str(notation)
    raise TypeError(
        f"not a sweepable stimulus (no notation): {test!r}"
    )


#: Canonical comparison key of one operation.
NormalizedOp = Union[
    Tuple[str, int, int, int],  # ("w"/"r", port, address, value/expected)
    Tuple[str, int, int],       # ("d", port, delay)
]


def normalize(op: MemoryOperation) -> NormalizedOp:
    """Canonical comparison key of ``op`` (see module docstring)."""
    if op.is_delay:
        return ("d", op.port, op.delay)
    if op.is_write:
        return ("w", op.port, op.address, op.value)
    return ("r", op.port, op.address, op.expected)


def format_normalized(key: Optional[NormalizedOp]) -> str:
    """Render a normalised op for divergence reports (None = stream end)."""
    if key is None:
        return "<end of stream>"
    if key[0] == "d":
        return f"p{key[1]} delay({key[2]})"
    if key[0] == "w":
        return f"p{key[1]} w@{key[2]}={key[3]:x}"
    return f"p{key[1]} r@{key[2]}?{key[3]:x}"


@dataclass(frozen=True)
class AttributedOp:
    """One traced operation plus the program location that issued it.

    Attributes:
        op: the raw operation, exactly as the source emitted it.
        owner: human-readable owning location — march item, microcode
            row, upper-buffer row or hardwired state.
    """

    op: MemoryOperation
    owner: str

    @property
    def key(self) -> NormalizedOp:
        return normalize(self.op)


def normalize_cycle(cycle: CycleOps) -> Tuple[NormalizedOp, ...]:
    """Canonical comparison key of one same-cycle op group.

    The per-op normalisation of :func:`normalize`, tupled in the group's
    (ascending-port) order — two cycles are equivalent iff every port
    issues the same access.
    """
    return tuple(normalize(op) for op in cycle.ops)


def format_cycle(key: Optional[Tuple[NormalizedOp, ...]]) -> str:
    """Render a normalised cycle for divergence reports."""
    if key is None:
        return "<end of stream>"
    return " | ".join(format_normalized(op) for op in key)


@dataclass(frozen=True)
class AttributedCycle:
    """One traced same-cycle op group plus its owning program location."""

    cycle: CycleOps
    owner: str

    @property
    def key(self) -> Tuple[NormalizedOp, ...]:
        return normalize_cycle(self.cycle)


def _pass_owners(test: MarchTest, n_words: int, prefix: str = "") -> List[str]:
    """Owners of one (port, background) pass, in ``expand`` order.

    Each item's owner strings are formatted once and repeated per
    address: ``item I <item>`` for a pause, ``item I <item> op K`` for
    an element's K-th operation.
    """
    owners: List[str] = []
    for item_index, item in enumerate(test.items):
        head = f"{prefix}item {item_index} {item}"
        if isinstance(item, Pause):
            owners.append(head)
        else:
            owners.extend(
                [f"{head} op {op_index}" for op_index in range(item.op_count)]
                * n_words
            )
    return owners


def concurrent_trace(
    test: MarchTest, capabilities: ControllerCapabilities
) -> List[AttributedCycle]:
    """The concurrent golden cycle stream, attributed to march items.

    Owners follow the rotation structure of
    :func:`repro.march.concurrent.expand_concurrent` (base-port rotation
    outermost, then backgrounds, items, addresses); as with
    :func:`golden_trace`, the pairing is asserted against the expander's
    actual output length.
    """
    caps = capabilities
    cycles = list(
        expand_concurrent(
            test, caps.n_words, width=caps.width, ports=caps.ports
        )
    )
    owners: List[str] = []
    backgrounds = len(data_backgrounds(caps.width))
    for rotation in range(caps.ports):
        rotation_pass = _pass_owners(test, caps.n_words, f"rotation {rotation} ")
        owners.extend(rotation_pass * backgrounds)
    if len(owners) != len(cycles):  # pragma: no cover - structural invariant
        raise AssertionError(
            f"concurrent attribution out of sync: {len(owners)} owners for "
            f"{len(cycles)} cycles"
        )
    return [AttributedCycle(cycle, owner) for cycle, owner in zip(cycles, owners)]


def golden_trace(
    test: MarchTest, capabilities: ControllerCapabilities
) -> List[AttributedOp]:
    """The golden reference stream, attributed to march items.

    Owners are generated from the march structure in the exact loop
    order of :func:`repro.march.simulator.expand` (ports outermost,
    backgrounds, items, addresses); the pairing is asserted against the
    expander's actual output length so the attribution can never drift
    silently from the executable semantics.
    """
    caps = capabilities
    ops = list(expand(test, caps.n_words, width=caps.width, ports=caps.ports))
    passes = caps.ports * len(data_backgrounds(caps.width))
    owners = _pass_owners(test, caps.n_words) * passes
    if len(owners) != len(ops):  # pragma: no cover - structural invariant
        raise AssertionError(
            f"golden attribution out of sync: {len(owners)} owners for "
            f"{len(ops)} operations"
        )
    return [AttributedOp(op, owner) for op, owner in zip(ops, owners)]


def microcode_trace(controller) -> List[AttributedOp]:
    """Attributed stream of a :class:`MicrocodeBistController`.

    The owner names the storage row (the microcode instruction counter
    value) and its one-line disassembly, so a divergence report points
    straight at the offending program word.
    """
    from repro.core.microcode.disassembler import disassemble_instruction

    out: List[AttributedOp] = []
    for entry in controller.trace():
        if entry.operation is None:
            continue
        owner = (
            f"microcode row {entry.ic}: "
            f"{disassemble_instruction(entry.instruction)}"
        )
        out.append(AttributedOp(entry.operation, owner))
    return out


def fsm_trace(controller) -> List[AttributedOp]:
    """Attributed stream of a :class:`ProgrammableFsmBistController`.

    The owner names the circular-buffer row and its decoded instruction
    (SM mode, order, base polarities).
    """
    out: List[AttributedOp] = []
    for entry in controller.trace():
        if entry.operation is None:
            continue
        owner = f"fsm row {entry.row}: {entry.instruction}"
        out.append(AttributedOp(entry.operation, owner))
    return out


def hardwired_trace(controller) -> List[AttributedOp]:
    """Attributed stream of a :class:`HardwiredBistController`.

    The owner names the synthesised FSM state (index, kind, operation).
    """
    out: List[AttributedOp] = []
    for entry in controller.trace():
        if entry.operation is None:
            continue
        state = entry.state
        detail = state.kind
        if state.kind == "op" and state.op_kind is not None:
            detail = f"op {state.op_kind.value}{state.polarity}"
        elif state.kind == "pause":
            detail = f"pause({state.pause_duration})"
        owner = f"hardwired state {state.index} ({detail})"
        out.append(AttributedOp(entry.operation, owner))
    return out
