"""Golden march-test execution engine.

This is the reference semantics every BIST controller in
:mod:`repro.core` is verified against: :func:`expand` turns a march test
plus a memory geometry into the exact stream of memory operations a
correct controller must issue, and :func:`run_on_memory` applies such a
stream to a (possibly faulty) memory model and collects failures.

Loop nesting matches both of the paper's programmable architectures:
ports outermost (microcode instruction 9 / FSM "path B"), data
backgrounds next (instruction 8 / "path A"), then the march elements and
the address sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence

from repro.march.backgrounds import apply_polarity, data_backgrounds
from repro.march.element import AddressOrder, MarchElement, Pause
from repro.march.test import MarchTest


@dataclass(frozen=True)
class MemoryOperation:
    """One memory access (or idle pause) issued by a BIST controller.

    Attributes:
        port: port index the access is issued on.
        address: word address (ignored for ``DELAY``; kept at 0).
        is_write: True for writes; False for reads and delays.
        value: word written (writes only, else 0).
        expected: word a read must observe, or ``None`` for writes/delays.
        delay: idle time units (retention pauses only, else 0).
    """

    port: int
    address: int
    is_write: bool
    value: int = 0
    expected: Optional[int] = None
    delay: int = 0

    @property
    def is_read(self) -> bool:
        return not self.is_write and self.delay == 0

    @property
    def is_delay(self) -> bool:
        return self.delay > 0

    def __str__(self) -> str:
        if self.is_delay:
            return f"p{self.port} delay({self.delay})"
        if self.is_write:
            return f"p{self.port} w@{self.address}={self.value:x}"
        return f"p{self.port} r@{self.address}?{self.expected:x}"


def _addresses(order: AddressOrder, n_words: int) -> Iterable[int]:
    if order.resolve() is AddressOrder.UP:
        return range(n_words)
    return range(n_words - 1, -1, -1)


def expand(
    test: MarchTest,
    n_words: int,
    width: int = 1,
    ports: int = 1,
    backgrounds: Optional[Sequence[int]] = None,
) -> Iterator[MemoryOperation]:
    """Yield the golden operation stream of ``test`` for a memory geometry.

    Args:
        test: the march algorithm.
        n_words: number of addressable words.
        width: word width in bits (1 = bit-oriented).
        ports: number of read/write ports; the full test repeats per port.
        backgrounds: data background set; defaults to the standard
            ``log2(width)+1`` patterns of
            :func:`repro.march.backgrounds.data_backgrounds`.

    Yields:
        :class:`MemoryOperation` in exact controller order.
    """
    if n_words <= 0:
        raise ValueError(f"memory needs at least one word, got {n_words}")
    if ports <= 0:
        raise ValueError(f"memory needs at least one port, got {ports}")
    patterns = list(data_backgrounds(width) if backgrounds is None else backgrounds)
    for port in range(ports):
        for background in patterns:
            for item in test.items:
                if isinstance(item, Pause):
                    yield MemoryOperation(
                        port=port, address=0, is_write=False, delay=item.duration
                    )
                    continue
                yield from _expand_element(item, n_words, width, port, background)


def _expand_element(
    element: MarchElement,
    n_words: int,
    width: int,
    port: int,
    background: int,
) -> Iterator[MemoryOperation]:
    for address in _addresses(element.order, n_words):
        for op in element.ops:
            word = apply_polarity(background, op.polarity, width)
            if op.is_write:
                yield MemoryOperation(port, address, True, value=word)
            else:
                yield MemoryOperation(port, address, False, expected=word)


def operation_count(
    test: MarchTest,
    n_words: int,
    width: int = 1,
    ports: int = 1,
) -> int:
    """Length of the golden stream, computed analytically.

    Equals ``len(list(expand(...)))`` without materialising the stream —
    used for test-time accounting over large memories.
    """
    backgrounds = len(data_backgrounds(width))
    per_pass = test.operation_count * n_words + len(test.pauses)
    return ports * backgrounds * per_pass


@dataclass(frozen=True)
class Failure:
    """A read mismatch observed while executing an operation stream.

    Attributes:
        op_index: position of the failing read in the stream.
        port: port the read was issued on.
        address: failing word address.
        expected: word the read should have returned.
        observed: word actually returned by the memory.
    """

    op_index: int
    port: int
    address: int
    expected: int
    observed: int

    @property
    def failing_bits(self) -> int:
        """Bit mask of mismatching bit positions."""
        return self.expected ^ self.observed


@dataclass
class RunResult:
    """Outcome of applying an operation stream to a memory model."""

    operations: int
    failures: List[Failure]

    @property
    def passed(self) -> bool:
        return not self.failures

    @property
    def failure_count(self) -> int:
        return len(self.failures)


def run_on_memory(
    operations: Iterable[MemoryOperation],
    memory,
) -> RunResult:
    """Apply an operation stream to a memory model and record mismatches.

    The one loop that applies a sequential stream: BIST runs, response
    captures, in-field sessions and transparent runs all call it.  The
    ``memory`` object must provide ``read(port, address) -> int``,
    ``write(port, address, value)`` and ``elapse(duration)`` — the
    interface of :class:`repro.memory.sram.Sram`.  Streams are open
    loop, so the whole stream is applied; a go/no-go verdict is the
    first failure of the run.

    Args:
        operations: stream from :func:`expand` or a BIST controller.
        memory: memory model under test.
    """
    failures: List[Failure] = []
    read, write, elapse = memory.read, memory.write, memory.elapse
    count = 0
    for count, op in enumerate(operations, 1):
        if op.delay > 0:
            elapse(op.delay)
        elif op.is_write:
            write(op.port, op.address, op.value)
        else:
            observed = read(op.port, op.address)
            if observed != op.expected:
                failures.append(
                    Failure(count - 1, op.port, op.address, op.expected,
                            observed)
                )
    return RunResult(operations=count, failures=failures)
