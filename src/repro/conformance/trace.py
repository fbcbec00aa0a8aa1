"""Normalised, provenance-attributed operation streams.

Every controller in :mod:`repro.core` and the golden expander in
:mod:`repro.march.simulator` emit the same
:class:`~repro.march.simulator.MemoryOperation` type; this module turns
each of those streams into one :class:`Stream` value — the operations
as emitted, plus an owner per op naming the program location that
issued it:

* golden stream — the owning march item and operation index;
* microcode controller — the storage row and its disassembly;
* programmable FSM controller — the upper-buffer row and its decoded
  instruction;
* hardwired controller — the FSM state index and kind.

A stream stores each owner once, in a small per-stream owner table,
plus one table index per op, and formats owner text only when a report
looks it up (:meth:`Stream.owner`).  A concurrent cycle stream is the
same value over :class:`~repro.march.concurrent.CycleOps` groups.

Normalisation rules (see ``docs/TESTING.md``):

* a write is ``("w", port, address, value)``;
* a read is ``("r", port, address, expected)``;
* a pause is ``("d", port, delay)`` — the placeholder address and the
  unused value/expected fields of delay operations are *not* compared;
* nothing else (cycle timing, controller state, owners) participates:
  op-for-op equivalence is about the memory-facing behaviour only.
  Temporal equivalence is the fuzz harness's separate assertion (a)/(b).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from operator import attrgetter, itemgetter
from typing import (
    Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union,
)

from repro.core.controller import ControllerCapabilities
from repro.core.microcode.disassembler import disassemble_instruction
from repro.march.backgrounds import data_backgrounds
from repro.march.concurrent import expand_concurrent
from repro.march.element import Pause
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


@dataclass(frozen=True, repr=False)
class Stream:
    """An operation stream plus the program location that issued each op.

    Attributes:
        ops: the operations exactly as the source emitted them —
            :class:`~repro.march.simulator.MemoryOperation` values, or
            :class:`~repro.march.concurrent.CycleOps` groups for a cycle
            stream.
        owners: per op, the index of its owner entry in ``table``.
        table: the stream's distinct owner entries.
        describe: ``describe(entry, op)`` formats an owner entry as the
            owner text of ``op``.
    """

    ops: Sequence[Any]
    owners: Sequence[int]
    table: Sequence[Any]
    describe: Callable[[Any, Any], str]

    def __len__(self) -> int:
        return len(self.ops)

    def owner(self, index: int) -> str:
        """The owner text of op ``index`` (``""`` outside the stream)."""
        if not 0 <= index < len(self.ops):
            return ""
        return self.describe(self.table[self.owners[index]], self.ops[index])


def item_owner(entry: Tuple[str, int, Any, Optional[int]], op) -> str:
    """Owner text of a march-item entry ``(prefix, item index, item, op
    index)``; the op index is None for a pause."""
    prefix, item_index, item, op_index = entry
    head = f"{prefix}item {item_index} {item}"
    return head if op_index is None else f"{head} op {op_index}"


def _pass_owners(
    test: MarchTest, n_words: int, table: List[Any], prefix: str = ""
) -> array:
    """Owner indices of one (port, background) pass, in ``expand`` order.

    Appends each item's entries to ``table`` (one per pause, one per
    element operation); an element's indices repeat per address.
    """
    owners = array("I")
    for item_index, item in enumerate(test.items):
        first = len(table)
        if isinstance(item, Pause):
            table.append((prefix, item_index, item, None))
            owners.append(first)
        else:
            table.extend(
                (prefix, item_index, item, op_index)
                for op_index in range(item.op_count)
            )
            owners.extend(array("I", range(first, len(table))) * n_words)
    return owners


def _march_stream(ops: List[Any], owners: array, table, what: str):
    """The march-item-attributed stream, its pairing checked."""
    if len(owners) != len(ops):  # pragma: no cover - structural invariant
        raise AssertionError(
            f"{what} attribution out of sync: {len(owners)} owners for "
            f"{len(ops)} operations"
        )
    return Stream(ops, owners, tuple(table), item_owner)


def concurrent_trace(
    test: MarchTest, capabilities: ControllerCapabilities
) -> Stream:
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
    table: List[Any] = []
    owners = array("I")
    backgrounds = len(data_backgrounds(caps.width))
    for rotation in range(caps.ports):
        owners.extend(
            _pass_owners(test, caps.n_words, table, f"rotation {rotation} ")
            * backgrounds
        )
    return _march_stream(cycles, owners, table, "concurrent")


def golden_trace(
    test: MarchTest, capabilities: ControllerCapabilities
) -> Stream:
    """The golden reference stream, attributed to march items.

    An op's owner follows from its index alone: owners are generated
    from the march structure in the exact loop order of
    :func:`repro.march.simulator.expand` (ports outermost, backgrounds,
    items, addresses), and the pairing is asserted against the
    expander's actual output length so the attribution can never drift
    silently from the executable semantics.
    """
    caps = capabilities
    ops = list(expand(test, caps.n_words, width=caps.width, ports=caps.ports))
    table: List[Any] = []
    passes = caps.ports * len(data_backgrounds(caps.width))
    owners = _pass_owners(test, caps.n_words, table) * passes
    return _march_stream(ops, owners, table, "golden")


def _index_owner(index: int, op) -> str:
    return f"op {index}"


def op_trace(operations: Iterable[MemoryOperation]) -> Stream:
    """Any plain operation stream (a classical algorithm, a controller's
    ``operations()``), each op owned by its stream index ``op I``."""
    ops = list(operations)
    return Stream(ops, range(len(ops)), range(len(ops)), _index_owner)


def tabulate(issued, describe, key=None) -> Stream:
    """The stream of ``(op, owner entry)`` pairs, skipping cycles that
    issue no op (``op`` is None).  Entries with equal ``key(entry)`` (by
    default, equal entries) share one table slot holding the first of
    them; slots are in first-issue order."""
    ops: List[Any] = []
    owners = array("I")
    table: List[Any] = []
    slots: Dict[Any, int] = {}
    for op, entry in issued:
        if op is None:
            continue
        where = entry if key is None else key(entry)
        slot = slots.get(where)
        if slot is None:
            slot = slots[where] = len(table)
            table.append(entry)
        ops.append(op)
        owners.append(slot)
    return Stream(ops, owners, tuple(table), describe)


def _microcode_owner(entry, op) -> str:
    ic, instruction = entry
    return f"microcode row {ic}: {disassemble_instruction(instruction)}"


def microcode_trace(controller) -> Stream:
    """Attributed stream of a :class:`MicrocodeBistController`.

    The owner names the storage row (the microcode instruction counter
    value) and its one-line disassembly, so a divergence report points
    straight at the offending program word.
    """
    return tabulate(
        ((e.operation, (e.ic, e.instruction)) for e in controller.trace()),
        _microcode_owner, itemgetter(0),
    )


def _fsm_owner(entry, op) -> str:
    row, instruction = entry
    return f"fsm row {row}: {instruction}"


def fsm_trace(controller) -> Stream:
    """Attributed stream of a :class:`ProgrammableFsmBistController`.

    The owner names the circular-buffer row and its decoded instruction
    (SM mode, order, base polarities).
    """
    return tabulate(
        ((e.operation, (e.row, e.instruction)) for e in controller.trace()),
        _fsm_owner, itemgetter(0),
    )


def _hardwired_owner(state, op) -> str:
    """Owner of the ops a synthesised FSM state issues."""
    detail = state.kind
    if state.kind == "op" and state.op_kind is not None:
        detail = f"op {state.op_kind.value}{state.polarity}"
    elif state.kind == "pause":
        detail = f"pause({state.pause_duration})"
    return f"hardwired state {state.index} ({detail})"


def hardwired_trace(controller) -> Stream:
    """Attributed stream of a :class:`HardwiredBistController`.

    The owner names the synthesised FSM state (index, kind, operation).
    """
    return tabulate(
        ((e.operation, e.state) for e in controller.trace()),
        _hardwired_owner, attrgetter("index"),
    )
