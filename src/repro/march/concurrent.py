"""Concurrent dual-port march expansion: same-cycle multi-port stimuli.

The sequential golden expansion (:func:`repro.march.simulator.expand`)
repeats the whole algorithm per port — the paper's microcode ``Inc.
Port`` / FSM path B realisation.  That regime never has two ports active
in one cycle, so faults sensitised by *simultaneous* accesses (the
paper's multiport Table 2 regime; :mod:`repro.faults.concurrent`) are
structurally invisible to it.

:func:`expand_concurrent` produces the concurrent variant: a stream of
:class:`CycleOps` groups where, in every access cycle, the *base* port
runs the ordinary march operation while a *companion* port issues a
same-cycle read of the same address, expecting the pre-cycle word (the
read-first arbitration of :meth:`repro.memory.sram.Sram.cycle`).  The
base-port operations of the concurrent stream are op-for-op the
sequential golden stream — the companion reads ride along, turning every
march operation into a genuine two-port access without changing what the
algorithm itself does.

The expansion assumes the memory starts zeroed (the injector's
``reset_state`` contract): companion read expectations come from a
fault-free shadow of the cell contents, tracked from that zero-init
state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.march.backgrounds import apply_polarity, data_backgrounds
from repro.march.element import MarchElement, Pause
from repro.march.simulator import (
    Failure,
    MemoryOperation,
    RunResult,
    _addresses,
    operation_count,
)
from repro.march.test import MarchTest


@dataclass(frozen=True)
class CycleOps:
    """One memory cycle: a group of per-port operations applied atomically.

    Operations are stored in ascending port order (the commit order of
    :meth:`repro.memory.sram.Sram.cycle`).  Validated on construction:
    non-empty, at most one operation per port, and a pause (delay op)
    only travels alone.
    """

    ops: Tuple[MemoryOperation, ...]

    def __init__(self, ops: Iterable[MemoryOperation]) -> None:
        group = tuple(sorted(ops, key=lambda op: op.port))
        if not group:
            raise ValueError("a cycle needs at least one operation")
        ports = [op.port for op in group]
        if len(set(ports)) != len(ports):
            raise ValueError(
                f"duplicate port in cycle group {group!r}: a port issues "
                f"at most one access per cycle"
            )
        if any(op.is_delay for op in group) and len(group) > 1:
            raise ValueError("a pause cannot share a cycle with port accesses")
        object.__setattr__(self, "ops", group)

    @property
    def is_delay(self) -> bool:
        return self.ops[0].is_delay

    @property
    def ports(self) -> Tuple[int, ...]:
        return tuple(op.port for op in self.ops)

    def __iter__(self):
        return iter(self.ops)

    def __len__(self) -> int:
        return len(self.ops)

    def __str__(self) -> str:
        return " | ".join(str(op) for op in self.ops)


def expand_concurrent(
    test: MarchTest,
    n_words: int,
    width: int = 1,
    ports: int = 1,
    backgrounds: Optional[Sequence[int]] = None,
) -> Iterator[CycleOps]:
    """Yield the concurrent golden cycle stream of ``test``.

    Loop nesting mirrors :func:`~repro.march.simulator.expand` — base
    port (rotation) outermost, then data backgrounds, march items and
    the address sweep — so the base-port operation of cycle *i* is
    exactly operation *i* of the sequential stream.  In every access
    cycle the companion port ``(base + 1) % ports`` additionally reads
    the same address, expecting the pre-cycle word from a fault-free
    shadow (zero-initialised memory).  Pauses stay single-op cycles.

    With ``ports == 1`` there is no companion: every cycle holds exactly
    the sequential operation, so the concurrent stream degenerates
    op-for-op to :func:`~repro.march.simulator.expand`.
    """
    if n_words <= 0:
        raise ValueError(f"memory needs at least one word, got {n_words}")
    if ports <= 0:
        raise ValueError(f"memory needs at least one port, got {ports}")
    patterns = list(
        data_backgrounds(width) if backgrounds is None else backgrounds
    )
    state: List[int] = [0] * n_words
    for base in range(ports):
        companion = (base + 1) % ports
        for background in patterns:
            for item in test.items:
                if isinstance(item, Pause):
                    yield CycleOps(
                        (
                            MemoryOperation(
                                port=base,
                                address=0,
                                is_write=False,
                                delay=item.duration,
                            ),
                        )
                    )
                    continue
                yield from _expand_element_concurrent(
                    item, n_words, width, base, companion, background, state
                )


def _expand_element_concurrent(
    element: MarchElement,
    n_words: int,
    width: int,
    base: int,
    companion: int,
    background: int,
    state: List[int],
) -> Iterator[CycleOps]:
    for address in _addresses(element.order, n_words):
        for op in element.ops:
            word = apply_polarity(background, op.polarity, width)
            pre_cycle = state[address]
            if op.is_write:
                base_op = MemoryOperation(base, address, True, value=word)
                state[address] = word
            else:
                base_op = MemoryOperation(
                    base, address, False, expected=word
                )
            group = [base_op]
            if companion != base:
                # Read-first arbitration: the companion observes the
                # pre-cycle word even when the base op writes this cycle.
                group.append(
                    MemoryOperation(
                        companion, address, False, expected=pre_cycle
                    )
                )
            yield CycleOps(group)


def cycle_count(
    test: MarchTest,
    n_words: int,
    width: int = 1,
    ports: int = 1,
) -> int:
    """Length of the concurrent cycle stream, computed analytically.

    One cycle per sequential operation — the companion reads share
    cycles instead of adding them — so this equals
    :func:`~repro.march.simulator.operation_count`.
    """
    return operation_count(test, n_words, width, ports)


def run_cycles_on_memory(
    cycles: Iterable[CycleOps],
    memory,
) -> RunResult:
    """Apply a concurrent cycle stream to a memory model.

    The one loop that applies a cycle stream.  The ``memory`` must
    provide ``cycle(ops) -> {port: observed}`` — the interface of
    :class:`repro.memory.sram.Sram`.  Failures carry the *cycle* index
    as ``op_index``; several reads of one cycle can fail, yielding one
    failure per mismatching port in ascending port order.
    """
    failures: List[Failure] = []
    apply = memory.cycle
    count = 0
    for count, cycle in enumerate(cycles, 1):
        observed_by_port = apply(cycle.ops)
        for op in cycle.ops:
            if not op.is_read:
                continue
            observed = observed_by_port[op.port]
            if observed != op.expected:
                failures.append(
                    Failure(count - 1, op.port, op.address, op.expected,
                            observed)
                )
    return RunResult(operations=count, failures=failures)
